//! The simulated machine: memory hierarchy, processes, fault generation.

use std::collections::BTreeMap;
use vusion_cache::{CacheOutcome, Llc, LlcConfig, LINE_SIZE};
use vusion_dram::{DramConfig, FlipEvent, RowBufferOutcome, RowBuffers, RowhammerModel};
use vusion_mem::{
    BuddyAllocator, CrashInjector, CrashPlan, CrashSite, FaultInjector, FaultPlan, FrameAllocator,
    FrameId, FrameState, InjectionStats, MmError, PageType, PhysAddr, PhysMemory, VirtAddr,
    HUGE_PAGE_FRAMES, HUGE_PAGE_SIZE, PAGE_SIZE,
};
use vusion_mmu::{AddressSpace, LeafInfo, Pte, PteFlags, Tlb, TlbEntry, Vma, VmaBacking};
use vusion_obs::{
    DramOutcome, FaultKind, InstantKind, Obs, PageClass, SpanKind, SurfaceExtras, SurfaceTransition,
};
use vusion_snapshot::{Reader, Snapshot, SnapshotError, Writer};

use crate::clock::{Jitter, SimClock, COSTS};
use crate::journal::JournalEvent;
use crate::process::Process;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub usize);

/// Number of *logical* shards the scan pre-hash cost is split across in
/// the `scan.shard_cost_ns.*` metrics: the `i`-th page hashed in a call
/// to [`Machine::scan_cost_hashed`] is charged to shard `i % 8`.
const LOGICAL_SCAN_SHARDS: usize = 8;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load (also models instruction fetch).
    Read,
    /// Store.
    Write,
}

/// Why an access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultReason {
    /// No (present) translation exists.
    NotMapped,
    /// The leaf PTE has a reserved bit set: the access traps regardless of
    /// permissions (the S⊕F mechanism, §7.1).
    Trapped,
    /// A write hit a read-only mapping (copy-on-write).
    WriteProtected,
}

/// A page fault, delivered to the [`crate::FusionPolicy`] and then to the
/// default handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFault {
    /// Faulting process.
    pub pid: Pid,
    /// Faulting address.
    pub va: VirtAddr,
    /// The access that faulted.
    pub kind: AccessKind,
    /// Fault classification.
    pub reason: FaultReason,
}

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Prefetch instructions executed.
    pub prefetches: u64,
    /// Faults by reason.
    pub faults_not_mapped: u64,
    /// Reserved-bit traps.
    pub faults_trapped: u64,
    /// CoW faults.
    pub faults_write_protected: u64,
    /// Demand-zero fills (4 KiB).
    pub demand_zero: u64,
    /// Demand huge-page fills (2 MiB).
    pub demand_huge: u64,
    /// Page-cache fills.
    pub demand_file: u64,
    /// Copy-on-write copies performed by the default handler.
    pub cow_copies: u64,
    /// Rowhammer bit flips applied to memory.
    pub bit_flips: u64,
    /// Allocation failures observed by the kernel (genuine or injected):
    /// each one degraded gracefully instead of aborting.
    pub oom_events: u64,
    /// Faults injected by the machine's [`FaultPlan`] (allocator failures,
    /// checksum corruptions and scan bit flips combined).
    pub injected_faults: u64,
    /// Scanner pages skipped this run and left for a later round because a
    /// resource was unavailable or a scan read was unreliable.
    pub scan_retries: u64,
    /// Deferred-free-queue drains performed under memory pressure to
    /// recover frames before reporting exhaustion.
    pub deferred_drains: u64,
    /// What the fusion scanner did, on every entry path.
    pub scan: ScanCounts,
}

/// What the fusion scanner did, cumulative. Engines bump it through
/// [`Machine::scan_counts_mut`] where they visit, skip, merge or break a
/// page, so a timed wake, a forced scan, a direct
/// [`crate::FusionPolicy::scan`] call and a replayed wake all count alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Pages examined (one per page visit).
    pub pages_scanned: u64,
    /// Pages merged with an existing copy (real merges).
    pub pages_merged: u64,
    /// Pages fake-merged (VUsion only).
    pub pages_fake_merged: u64,
    /// Pages skipped because they were in the working set.
    pub pages_skipped_active: u64,
    /// Pages skipped because their frame's write generation (and mapping)
    /// was unchanged since the last visit — the dirty-driven pass list.
    pub pages_skipped_clean: u64,
    /// Huge pages broken up to consider their contents for fusion.
    pub huge_pages_broken: u64,
}

/// Machine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Physical memory size in 4 KiB frames.
    pub frames: u64,
    /// LLC geometry.
    pub llc: LlcConfig,
    /// DRAM geometry.
    pub dram: DramConfig,
    /// Master seed (jitter, Rowhammer weak cells).
    pub seed: u64,
    /// Whether anonymous demand faults install 2 MiB mappings when possible
    /// (transparent huge pages).
    pub thp: bool,
    /// Frames at the top of physical memory excluded from the system buddy
    /// allocator. Windows Page Fusion's `MiAllocatePagesForMdl`-style
    /// allocator serves fused-page backing frames from this region (§2.2).
    pub reserved_top_frames: u64,
    /// Deterministic fault-injection plan, seeded from [`Self::seed`].
    /// Inert until [`Machine::arm_faults`] is called, so machine and engine
    /// construction stay deterministic regardless of the plan.
    pub fault_plan: FaultPlan,
    /// Seeded crash-point plan, mirroring `fault_plan`: inert until
    /// [`Machine::arm_crashes`] is called, after which the engine whose
    /// crash-site poll matches aborts that operation mid-flight exactly
    /// once.
    pub crash_plan: CrashPlan,
}

impl MachineConfig {
    /// A machine sized like one of the paper's 2 GB guests, scaled to
    /// 256 MiB so experiments stay fast; geometry matches the testbed LLC.
    pub fn guest_2g_scaled() -> Self {
        Self {
            frames: 65536, // 256 MiB
            llc: LlcConfig::xeon_e3_1240_v5(),
            dram: DramConfig::ddr4(),
            seed: 0x5eed,
            thp: false,
            reserved_top_frames: 0,
            fault_plan: FaultPlan::NONE,
            crash_plan: CrashPlan::NONE,
        }
    }

    /// A small machine for unit tests (16 MiB, tiny LLC).
    pub fn test_small() -> Self {
        Self {
            frames: 4096,
            llc: LlcConfig::tiny(),
            dram: DramConfig::single_bank(),
            seed: 0x5eed,
            thp: false,
            reserved_top_frames: 0,
            fault_plan: FaultPlan::NONE,
            crash_plan: CrashPlan::NONE,
        }
    }

    /// Reserves `n` frames at the top of memory (for WPF).
    pub fn with_reserved_top(mut self, n: u64) -> Self {
        self.reserved_top_frames = n;
        self
    }

    /// Enables transparent huge pages.
    pub fn with_thp(mut self) -> Self {
        self.thp = true;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault-injection plan (armed later via
    /// [`Machine::arm_faults`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the crash-point plan (armed later via
    /// [`Machine::arm_crashes`]).
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }
}

/// The simulated machine.
pub struct Machine {
    cfg: MachineConfig,
    mem: PhysMemory,
    buddy: BuddyAllocator,
    llc: Llc,
    rows: RowBuffers,
    hammer: RowhammerModel,
    clock: SimClock,
    jitter: Jitter,
    /// Scan-time fault source (checksum corruption, observed bit flips),
    /// salted independently from the allocator's injector.
    scan_injector: FaultInjector,
    /// Crash-point source, inert until [`Machine::arm_crashes`].
    crash_injector: CrashInjector,
    processes: Vec<Process>,
    stats: MachineStats,
    journal: Vec<JournalEvent>,
    journal_on: bool,
    /// Non-zero while a composite operation (page-wise read/write, replay)
    /// is recording itself: inner byte accesses must not double-journal.
    journal_suspend: u32,
    /// Observability hub: tracer + metrics registry. Disabled by default
    /// (every hook is a single branch) and excluded from snapshots — it
    /// describes a run, not machine state.
    obs: Obs,
    /// Cumulative scan pre-hash cost per *logical* shard (see
    /// [`LOGICAL_SCAN_SHARDS`]). Accumulated unconditionally — it is plain
    /// integer addition and costs nothing observable. Snapshots do not
    /// carry it: like the tracer it is observability state, and
    /// [`Machine`]'s `Snapshot::load` resets it to zero.
    scan_shard_cost: [u64; LOGICAL_SCAN_SHARDS],
}

impl Machine {
    /// Builds the machine: physical memory, buddy allocator over all of it,
    /// cold caches.
    ///
    /// # Panics
    ///
    /// Panics if the configured reserved region leaves no general memory.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(
            cfg.reserved_top_frames < cfg.frames,
            "reserved region must leave general memory"
        );
        let mem = PhysMemory::new(cfg.frames as usize);
        let buddy = BuddyAllocator::new(FrameId(0), cfg.frames - cfg.reserved_top_frames);
        Self {
            cfg,
            mem,
            buddy,
            llc: Llc::new(cfg.llc),
            rows: RowBuffers::new(cfg.dram),
            hammer: RowhammerModel::new(cfg.dram, cfg.seed ^ 0xd7a3),
            clock: SimClock::new(),
            jitter: Jitter::new(cfg.seed ^ 0x1177),
            scan_injector: FaultInjector::new(FaultPlan::NONE, cfg.seed ^ 0x5ca1),
            crash_injector: CrashInjector::new(CrashPlan::NONE),
            processes: Vec::new(),
            stats: MachineStats::default(),
            journal: Vec::new(),
            journal_on: false,
            journal_suspend: 0,
            obs: Obs::new(),
            scan_shard_cost: [0; LOGICAL_SCAN_SHARDS],
        }
    }

    /// Arms the configured [`FaultPlan`]: subsequent buddy allocations and
    /// scan-time reads consult deterministic, independently salted
    /// injectors. Called *after* setup (spawns, engine construction) so a
    /// chaos run perturbs steady-state behavior, not construction.
    pub fn arm_faults(&mut self) {
        self.record(|| JournalEvent::ArmFaults);
        let plan = self.cfg.fault_plan;
        self.buddy
            .set_fault_injector(FaultInjector::new(plan, self.cfg.seed ^ 0xfa01));
        self.scan_injector = FaultInjector::new(plan, self.cfg.seed ^ 0x5ca1);
    }

    /// Arms the configured [`CrashPlan`]: subsequent [`Self::crash_now`]
    /// polls count toward the planned crash point. Deliberately *not*
    /// journaled — a replay of a crashed run must converge to the
    /// uncrashed execution of the same call sequence.
    pub fn arm_crashes(&mut self) {
        self.crash_injector = CrashInjector::new(self.cfg.crash_plan);
    }

    /// Polls the crash injector at a named crash site. Engines call this
    /// at the top of interruptible operations; `true` means "the kernel
    /// thread died here": abandon the operation mid-flight (after restoring
    /// whatever invariant-preserving cleanup the call site defines).
    pub fn crash_now(&mut self, site: CrashSite) -> bool {
        let fired = self.crash_injector.should_crash(site);
        if fired {
            self.trace_instant("chaos", InstantKind::CrashPoint, site as u64);
        }
        fired
    }

    /// How many crashes have fired since arming.
    pub fn crashes_fired(&self) -> u64 {
        self.crash_injector.fired()
    }

    // ------------------------------------------------------------------
    // Event journal
    // ------------------------------------------------------------------

    /// Turns on journaling (off by default: benchmarks drive millions of
    /// operations and must not accumulate events).
    pub fn enable_journal(&mut self) {
        self.journal_on = true;
    }

    /// Drops all recorded events (e.g. right after taking a snapshot, so
    /// the journal describes exactly the delta since it).
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// The events recorded so far.
    pub fn journal(&self) -> &[JournalEvent] {
        &self.journal
    }

    /// Suspends recording (composite operations, replay).
    pub(crate) fn suspend_journal(&mut self) {
        self.journal_suspend += 1;
    }

    /// Resumes recording after [`Self::suspend_journal`].
    pub(crate) fn resume_journal(&mut self) {
        self.journal_suspend = self.journal_suspend.saturating_sub(1);
    }

    /// Appends an event if journaling is on; the closure keeps event
    /// construction (string/box allocation) off the hot path. Only the
    /// kernel's own entry points record, so code outside this crate can
    /// neither forge an event nor silence recording around a call
    /// (E0624):
    ///
    /// ```compile_fail
    /// use vusion_kernel::{JournalEvent, Machine, MachineConfig};
    /// let mut m = Machine::new(MachineConfig::test_small());
    /// m.record(|| JournalEvent::ArmFaults);
    /// ```
    pub(crate) fn record(&mut self, ev: impl FnOnce() -> JournalEvent) {
        if self.journal_on && self.journal_suspend == 0 {
            self.journal.push(ev());
        }
    }

    // ------------------------------------------------------------------
    // Observability (tracing, metrics)
    // ------------------------------------------------------------------

    /// The observability hub (read-only).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The observability hub, mutably (tests and drivers record metrics
    /// through this).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Turns on tracing and metrics with the default ring capacity.
    /// Off by default: with tracing disabled every hook below is a single
    /// branch — no allocation, no clock read.
    pub fn enable_tracing(&mut self) {
        self.obs.enable(vusion_obs::DEFAULT_CAPACITY);
    }

    // ------------------------------------------------------------------
    // Side-channel surface recorder
    // ------------------------------------------------------------------

    /// Turns on the side-channel surface recorder (independent of
    /// tracing — see [`Obs`]), starting from a clean slate.
    pub fn enable_surface(&mut self) {
        self.obs.enable_surface();
    }

    /// Whether the surface recorder is on.
    #[inline(always)]
    pub fn surface_enabled(&self) -> bool {
        self.obs.surface_enabled()
    }

    /// Whether `frame` is currently shared (refcount > 1) — the ground
    /// truth the surface recorder classifies observables against.
    #[inline]
    fn frame_fused(&self, frame: FrameId) -> bool {
        frame.0 < self.cfg.frames && self.mem.info(frame).refcount > 1
    }

    /// Classifies the page a leaf PTE maps. Shared frames are `Fused`
    /// regardless of the trap bit (VUsion's merged pages are both);
    /// trapped-but-exclusive is the fake-merge disguise (`Trapped`);
    /// all-zero exclusive pages are `Zero`; everything else `Unshared`.
    pub fn classify_leaf(&self, leaf: &LeafInfo) -> PageClass {
        let frame = leaf.pte.frame();
        if self.frame_fused(frame) {
            PageClass::Fused
        } else if leaf.pte.is_trapped() {
            PageClass::Trapped
        } else if frame.0 < self.cfg.frames && self.mem.is_zero(frame) {
            PageClass::Zero
        } else {
            PageClass::Unshared
        }
    }

    /// Records one handled fault on the surface (no-op when disabled).
    #[inline]
    pub fn surface_record_fault(&mut self, class: PageClass, kind: FaultKind, latency_ns: u64) {
        if self.obs.surface_enabled() {
            self.obs.surface_mut().record_fault(class, kind, latency_ns);
        }
    }

    /// Records a page-class transition (merge / fake-merge / unmerge) on
    /// the surface (no-op when disabled). Engines call this next to their
    /// own stats counters.
    #[inline]
    pub fn surface_transition(&mut self, t: SurfaceTransition) {
        if self.obs.surface_enabled() {
            self.obs.surface_mut().record_transition(t);
        }
    }

    /// Snapshot-time observables the streaming counters cannot carry:
    /// page-class populations (one count per installed leaf; a 2 MiB leaf
    /// counts once), LLC lines per set currently backed by fused frames,
    /// and TLB entries split fused/other. Quiet: reads page tables and the
    /// zero-page memo only — no clock, no cache or hash side effects.
    pub fn surface_extras(&self) -> SurfaceExtras {
        let mut extras = SurfaceExtras::default();
        for p in &self.processes {
            for vma in p.space.vmas() {
                let mut pg = 0;
                while pg < vma.pages {
                    let va = VirtAddr(vma.start.0 + pg * PAGE_SIZE);
                    let Some(leaf) = p.space.tables().leaf(&self.mem, va) else {
                        pg += 1;
                        continue;
                    };
                    if !leaf.pte.is_present() && !leaf.pte.is_trapped() {
                        pg += 1;
                        continue;
                    }
                    let step = if leaf.huge {
                        HUGE_PAGE_SIZE / PAGE_SIZE
                    } else {
                        1
                    };
                    let class = self.classify_leaf(&leaf);
                    extras.populations[class.index()] += 1;
                    pg += step;
                }
            }
            for e in p.tlb.entries() {
                let fused = self.frame_fused(e.pte.frame());
                extras.tlb_occupancy[fused as usize] += 1;
            }
        }
        let cfg = self.llc.config();
        for set in 0..cfg.sets {
            let mut fused_lines = 0u64;
            for &line in self.llc.set_lines(set) {
                let frame = FrameId(line * LINE_SIZE / PAGE_SIZE);
                if self.frame_fused(frame) {
                    fused_lines += 1;
                }
            }
            if fused_lines > 0 {
                extras.llc_fused_occupancy.push((set as u64, fused_lines));
            }
        }
        extras
    }

    /// The surface rendered as canonical JSON (streaming counters plus
    /// the snapshot-time extras).
    pub fn surface_json(&self) -> String {
        self.obs.surface().to_json(&self.surface_extras())
    }

    /// Opens a trace span, timestamped by the simulated clock. `cat` names
    /// the emitting engine or subsystem ("ksm", "kernel", "mmu", ...).
    #[inline]
    pub fn trace_begin(&mut self, cat: &'static str, kind: SpanKind) {
        if self.obs.enabled() {
            let now = self.clock.now_ns();
            self.obs.tracer_mut().begin(cat, kind, now);
        }
    }

    /// Closes the innermost trace span (which must be of `kind`).
    #[inline]
    pub fn trace_end(&mut self, kind: SpanKind) {
        if self.obs.enabled() {
            let now = self.clock.now_ns();
            self.obs.tracer_mut().end(kind, now);
        }
    }

    /// Records a point trace event.
    #[inline]
    pub fn trace_instant(&mut self, cat: &'static str, kind: InstantKind, arg: u64) {
        if self.obs.enabled() {
            let now = self.clock.now_ns();
            self.obs.tracer_mut().instant(cat, kind, now, arg);
        }
    }

    /// Attributes scanner-side modeled cost to the open trace span.
    /// Scan work runs on its own core and never advances the workload
    /// clock (see the crate docs), so engines report its cost-model value
    /// here for attribution. Observability-only: touches no clock and no
    /// RNG, so enabling tracing never changes simulated behavior.
    #[inline]
    pub fn scan_cost(&mut self, ns: u64) {
        if self.obs.enabled() {
            self.obs.tracer_mut().on_cycles(ns);
        }
    }

    /// Attributes the modeled cost of a scan pre-hash that hashed `pages`
    /// 4 KiB pages: 64 cache lines at LLC-hit latency per page. The `i`-th
    /// page is charged to logical shard `i % 8`, so shard `l` receives
    /// `ceil((pages - l) / 8)` pages' worth, and the total goes to the
    /// open trace span like any other [`Machine::scan_cost`].
    pub fn scan_cost_hashed(&mut self, pages: usize) {
        let per_page = 64 * COSTS.llc_hit;
        for (l, cost) in self.scan_shard_cost.iter_mut().enumerate() {
            *cost += pages.saturating_sub(l).div_ceil(LOGICAL_SCAN_SHARDS) as u64 * per_page;
        }
        self.scan_cost(pages as u64 * per_page);
    }

    /// Cumulative scan cost attributed to each logical shard since
    /// construction (or the last snapshot restore — like the tracer,
    /// cost attribution is observability state and restarts at zero on
    /// restore rather than traveling in the snapshot).
    pub fn scan_shard_costs(&self) -> [u64; LOGICAL_SCAN_SHARDS] {
        self.scan_shard_cost
    }

    /// A page hash as the *scanner* observes it: the machine's fault plan
    /// may corrupt the value (a guest racing the checksum read). Memory
    /// itself is never altered — only the scanner's view.
    pub fn observed_hash(&mut self, frame: FrameId) -> u64 {
        let h = self.mem.hash_page(frame);
        self.scan_injector.corrupt_checksum(h)
    }

    /// Whether the scanner observes a transient bit flip on the page it is
    /// examining, making this round's content comparison unreliable.
    pub fn observed_scan_flip(&mut self) -> bool {
        self.scan_injector.scan_bitflip()
    }

    /// Records a scanner skip-and-retry (graceful degradation under
    /// resource failure). Call sites bump this exactly once per skipped
    /// page per round — `tests/accounting.rs` holds the identities.
    pub fn note_scan_retry(&mut self) {
        self.stats.scan_retries += 1;
        self.trace_instant("kernel", InstantKind::ScanRetry, 0);
    }

    /// Records an OOM condition an engine absorbed gracefully.
    pub fn note_oom(&mut self) {
        self.stats.oom_events += 1;
        self.trace_instant("kernel", InstantKind::Oom, 0);
    }

    /// Records a deferred-free-queue drain performed under memory pressure.
    pub fn note_deferred_drain(&mut self) {
        self.stats.deferred_drains += 1;
    }

    /// The scanner counters, for the engine that is scanning to bump.
    pub fn scan_counts_mut(&mut self) -> &mut ScanCounts {
        &mut self.stats.scan
    }

    /// Takes over `old`'s run-only state — the journal, its switches and
    /// the observability hub, none of which a snapshot carries — so that
    /// this machine, decoded from a snapshot, replaces `old` exactly as an
    /// in-place [`Snapshot::load`] into `old` would have changed it.
    pub(crate) fn inherit_run_state(&mut self, old: Machine) {
        // Every field is named, so a new one must say which kind it is.
        let Machine {
            cfg: _, // the same configuration built this machine
            // Machine state, decoded from the snapshot into `self`:
            mem: _,
            buddy: _,
            llc: _,
            rows: _,
            hammer: _, // a pure function of `cfg`
            clock: _,
            jitter: _,
            scan_injector: _,
            crash_injector: _,
            processes: _,
            stats: _,
            // Run-only state, which no snapshot carries:
            journal,
            journal_on,
            journal_suspend,
            obs,
            scan_shard_cost: _, // observability state a restore resets
        } = old;
        self.journal = journal;
        self.journal_on = journal_on;
        self.journal_suspend = journal_suspend;
        self.obs = obs;
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time (ns).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Advances the clock by a jittered amount. Fault handlers use this to
    /// charge their work to the faulting thread. When tracing is on, the
    /// jittered cycles are also attributed to the open trace span.
    pub fn charge(&mut self, base_ns: u64) {
        let ns = self.jitter.apply(base_ns);
        self.clock.advance(ns);
        if self.obs.enabled() {
            self.obs.tracer_mut().on_cycles(ns);
        }
    }

    /// Advances the clock without jitter (idle time between operations).
    pub fn sleep(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Counters. `injected_faults` is computed live from both injectors.
    pub fn stats(&self) -> MachineStats {
        let mut s = self.stats;
        s.injected_faults =
            self.buddy.injection_stats().total() + self.scan_injector.stats().total();
        s
    }

    /// Per-kind injection counters, combined across both injectors (the
    /// allocator's and the scanner's). Campaign coverage reports use this
    /// to show *which* fault kinds actually fired, not just how many.
    pub fn injection_breakdown(&self) -> InjectionStats {
        let a = self.buddy.injection_stats();
        let b = self.scan_injector.stats();
        InjectionStats {
            injected_allocs: a.injected_allocs + b.injected_allocs,
            injected_checksums: a.injected_checksums + b.injected_checksums,
            injected_bitflips: a.injected_bitflips + b.injected_bitflips,
        }
    }

    /// Physical memory (read-only).
    pub fn mem(&self) -> &PhysMemory {
        &self.mem
    }

    /// Physical memory (mutable) — for engines and tests.
    pub fn mem_mut(&mut self) -> &mut PhysMemory {
        &mut self.mem
    }

    /// The system buddy allocator (read-only).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// The system buddy allocator.
    pub fn buddy_mut(&mut self) -> &mut BuddyAllocator {
        &mut self.buddy
    }

    /// The LLC (for attack primitives that inspect it).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// The LLC, mutably (experiment/test helper — e.g. flushing lines the
    /// guest could not flush itself).
    pub fn llc_mut(&mut self) -> &mut Llc {
        &mut self.llc
    }

    /// Splits the machine into the parts engines typically need together.
    pub fn mm_parts(&mut self) -> (&mut PhysMemory, &mut BuddyAllocator, &mut [Process]) {
        (&mut self.mem, &mut self.buddy, &mut self.processes)
    }

    // ------------------------------------------------------------------
    // Processes and mappings
    // ------------------------------------------------------------------

    /// Spawns a process; returns its pid, or [`MmError::OutOfFrames`] when
    /// no frame remains for its top-level page table.
    pub fn spawn(&mut self, name: &str) -> Result<Pid, MmError> {
        self.record(|| JournalEvent::Spawn {
            name: name.to_string(),
        });
        let space = AddressSpace::new(&mut self.mem, &mut self.buddy)?;
        self.processes.push(Process::new(name, space));
        Ok(Pid(self.processes.len() - 1))
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// A process by pid.
    ///
    /// # Panics
    ///
    /// Panics if the pid is stale.
    pub fn process(&self, pid: Pid) -> &Process {
        &self.processes[pid.0]
    }

    /// A process by pid, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the pid is stale.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        &mut self.processes[pid.0]
    }

    /// Adds a VMA to a process (`mmap`).
    pub fn mmap(&mut self, pid: Pid, vma: Vma) {
        self.record(|| JournalEvent::Mmap { pid, vma });
        self.processes[pid.0].space.add_vma(vma);
    }

    /// Registers memory for fusion (`madvise(MADV_MERGEABLE)`).
    pub fn madvise_mergeable(&mut self, pid: Pid, start: VirtAddr, pages: u64) -> usize {
        self.record(|| JournalEvent::Madvise { pid, start, pages });
        self.processes[pid.0].space.madvise_mergeable(start, pages)
    }

    /// A cheap fingerprint of everything the fusion candidate list is
    /// derived from: the process count plus every address space's layout
    /// generation. Engines cache their `mergeable_pages` enumeration and
    /// rebuild only when this changes (new process, `mmap`, or a
    /// successful `madvise(MADV_MERGEABLE)`).
    pub fn layout_epoch(&self) -> (usize, u64) {
        let gens = self
            .processes
            .iter()
            .map(|p| p.space.layout_generation())
            .sum();
        (self.processes.len(), gens)
    }

    /// Allocates a frame from the buddy allocator for the given use.
    /// Failure (genuine OOM or injected) is counted in
    /// [`MachineStats::oom_events`] and reported, never fatal.
    pub fn alloc_frame(&mut self, page_type: PageType) -> Result<FrameId, MmError> {
        match self.buddy.alloc() {
            Ok(f) => {
                self.mem.info_mut(f).on_alloc(page_type);
                Ok(f)
            }
            Err(e) => {
                self.note_oom();
                Err(e)
            }
        }
    }

    /// The reserved top-of-memory region `(first frame, frame count)`, if
    /// configured. Fusion engines like WPF own it exclusively.
    pub fn reserved_region(&self) -> Option<(FrameId, u64)> {
        if self.cfg.reserved_top_frames == 0 {
            None
        } else {
            Some((
                FrameId(self.cfg.frames - self.cfg.reserved_top_frames),
                self.cfg.reserved_top_frames,
            ))
        }
    }

    /// Breaks a transparent huge page covering `va` into 512 base-page
    /// mappings over the same frames, converting the buddy record so the
    /// frames can later be freed individually, and flushing the TLB. Both
    /// KSM and VUsion do this before considering a THP's contents (§8.1).
    /// Reports [`MmError::BadPageTable`] if `va` is not covered by a huge
    /// mapping.
    pub fn break_thp(&mut self, pid: Pid, va: VirtAddr) -> Result<(), MmError> {
        let base = va.huge_base();
        let leaf = self.leaf(pid, base).ok_or(MmError::BadPageTable(base))?;
        if !leaf.huge {
            return Err(MmError::BadPageTable(base));
        }
        let head = leaf.pte.frame();
        {
            let (mem, buddy, procs) = self.mm_parts();
            procs[pid.0]
                .space
                .tables_mut()
                .break_huge(mem, buddy, base)?;
            procs[pid.0].tlb.flush();
        }
        self.trace_instant("mmu", InstantKind::TlbFlush, base.0);
        self.buddy.split_allocated(head, 9)
    }

    /// Allocates an order-9 (2 MiB) block and marks all 512 frames
    /// allocated with refcount 1. Returns the head frame, or `None` when
    /// memory is too fragmented.
    pub fn alloc_huge(&mut self, page_type: PageType) -> Option<FrameId> {
        let head = self.buddy.alloc_order(9).ok()?;
        for i in 0..HUGE_PAGE_FRAMES {
            self.mem.info_mut(FrameId(head.0 + i)).on_alloc(page_type);
        }
        Some(head)
    }

    /// Releases an order-9 block allocated with [`Self::alloc_huge`].
    /// Every frame must hold exactly one reference; a shared frame is
    /// reported (before any state changes) as [`MmError::DoubleFree`],
    /// since releasing it would strand its other owners.
    pub fn free_huge(&mut self, head: FrameId) -> Result<(), MmError> {
        for i in 0..HUGE_PAGE_FRAMES {
            let f = FrameId(head.0 + i);
            if self.mem.info(f).refcount != 1 {
                return Err(MmError::DoubleFree(f));
            }
        }
        for i in 0..HUGE_PAGE_FRAMES {
            let f = FrameId(head.0 + i);
            let mut info = self.mem.info_mut(f);
            info.put();
            info.on_free();
            drop(info);
            self.mem.zero_page(f);
        }
        self.buddy.free_order(head, 9)
    }

    /// Drops a reference to `frame`; frees it to the buddy allocator when
    /// the count reaches zero. Returns whether the frame was freed, or the
    /// buddy's misuse error (double free, foreign frame) with the
    /// reference *not* dropped, so a rejected put leaves state unchanged.
    pub fn put_frame(&mut self, frame: FrameId) -> Result<bool, MmError> {
        if self.mem.info(frame).refcount == 1 {
            self.buddy.free(frame)?;
            let mut info = self.mem.info_mut(frame);
            info.put();
            info.on_free();
            drop(info);
            self.mem.zero_page(frame);
            Ok(true)
        } else {
            self.mem.info_mut(frame).put();
            Ok(false)
        }
    }

    /// Overwrites the leaf PTE mapping `va` and shoots down the TLB entry.
    /// Reports [`MmError::BadPageTable`] if `va` has no leaf entry.
    pub fn set_leaf(&mut self, pid: Pid, va: VirtAddr, pte: Pte) -> Result<(), MmError> {
        let p = &mut self.processes[pid.0];
        p.space.tables_mut().set_leaf(&mut self.mem, va, pte)?;
        p.tlb.invalidate(va);
        self.trace_instant("mmu", InstantKind::TlbShootdown, va.0);
        Ok(())
    }

    /// Per-process TLB counters summed machine-wide:
    /// `(hits, misses, invalidations, full flushes)`.
    pub fn tlb_totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for p in &self.processes {
            let (h, m) = p.tlb.stats();
            let (inv, fl) = p.tlb.event_counts();
            t.0 += h;
            t.1 += m;
            t.2 += inv;
            t.3 += fl;
        }
        t
    }

    /// Reads the leaf PTE mapping `va`, if any (no timing).
    pub fn leaf(&self, pid: Pid, va: VirtAddr) -> Option<LeafInfo> {
        self.processes[pid.0].space.tables().leaf(&self.mem, va)
    }

    /// Quiet translation (no clock, no cache effects).
    pub fn translate_quiet(&self, pid: Pid, va: VirtAddr) -> Option<PhysAddr> {
        self.processes[pid.0].translate_quiet(&self.mem, va)
    }

    // ------------------------------------------------------------------
    // Timed memory hierarchy
    // ------------------------------------------------------------------

    fn dram_access(&mut self, pa: PhysAddr) {
        let outcome = self.rows.access(pa);
        if self.obs.surface_enabled() {
            let bank = self.rows.config().locate(pa).bank;
            let fused = self.frame_fused(pa.frame());
            let o = match outcome {
                RowBufferOutcome::Hit => DramOutcome::Hit,
                RowBufferOutcome::Empty => DramOutcome::Empty,
                RowBufferOutcome::Conflict => DramOutcome::Conflict,
            };
            self.obs.surface_mut().record_dram(fused, bank, o);
        }
        let cost = match outcome {
            RowBufferOutcome::Hit => COSTS.dram_row_hit,
            RowBufferOutcome::Empty => COSTS.dram_row_empty,
            RowBufferOutcome::Conflict => COSTS.dram_row_conflict,
        };
        self.charge(cost);
    }

    /// Touches the LLC for `pa` and, when the surface recorder is on,
    /// attributes the access and any capacity eviction to fused/other.
    fn llc_access_surfaced(&mut self, pa: PhysAddr) -> CacheOutcome {
        let (outcome, evicted) = self.llc.access_evicting(pa);
        if self.obs.surface_enabled() {
            let set = self.llc.set_index(pa) as u64;
            let fused = self.frame_fused(pa.frame());
            self.obs
                .surface_mut()
                .record_llc_access(fused, outcome == CacheOutcome::Hit, set);
            if let Some(line) = evicted {
                let victim = FrameId(line * LINE_SIZE / PAGE_SIZE);
                let victim_fused = self.frame_fused(victim);
                self.obs
                    .surface_mut()
                    .record_llc_eviction(victim_fused, set);
            }
        }
        outcome
    }

    /// A timed data access: through the LLC unless `uncached`.
    pub fn phys_access(&mut self, pa: PhysAddr, uncached: bool) {
        if uncached {
            self.dram_access(pa);
            return;
        }
        match self.llc_access_surfaced(pa) {
            CacheOutcome::Hit => self.charge(COSTS.llc_hit),
            CacheOutcome::Miss => self.dram_access(pa),
        }
    }

    /// Translates `va` for a timed access: a TLB hit, or else a page walk
    /// whose every entry read goes through the LLC. Returns the leaf and
    /// whether it came from the TLB; the TLB caches only the PTE, so a
    /// hit's `entry_addr` is a placeholder that nothing writes through.
    fn translate(&mut self, pid: Pid, va: VirtAddr) -> Option<(LeafInfo, bool)> {
        if let Some(e) = self.processes[pid.0].tlb.lookup(va) {
            let leaf = LeafInfo {
                pte: e.pte,
                entry_addr: PhysAddr(0),
                huge: e.huge,
            };
            return Some((leaf, true));
        }
        let walk = self.processes[pid.0].space.tables().walk(&self.mem, va);
        for &step in walk.steps() {
            self.phys_access(step, false);
        }
        walk.leaf.map(|leaf| (leaf, false))
    }

    fn resolve_pa(leaf: &LeafInfo, va: VirtAddr) -> PhysAddr {
        if leaf.huge {
            PhysAddr(leaf.pte.frame().base().0 + va.0 % HUGE_PAGE_SIZE)
        } else {
            PhysAddr(leaf.pte.frame().base().0 + va.page_offset())
        }
    }

    /// Performs one timed access. On success the data access is charged and
    /// ACCESSED/DIRTY bits are updated; on failure a [`PageFault`] is
    /// returned (fault entry cost is *not* yet charged — the System driver
    /// charges it so every fault path pays it exactly once).
    pub fn try_access(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<PhysAddr, PageFault> {
        self.charge(COSTS.cpu_op);
        // TLB lookup. Trapped PTEs are never cached, so a hit is conclusive
        // unless the access needs write permission the entry lacks.
        let Some((leaf, tlb_hit)) = self.translate(pid, va) else {
            self.stats.faults_not_mapped += 1;
            return Err(PageFault {
                pid,
                va,
                kind,
                reason: FaultReason::NotMapped,
            });
        };
        // Hardware checks reserved bits during the walk, before permissions.
        if leaf.pte.is_trapped() {
            self.stats.faults_trapped += 1;
            return Err(PageFault {
                pid,
                va,
                kind,
                reason: FaultReason::Trapped,
            });
        }
        if !leaf.pte.is_present() {
            self.stats.faults_not_mapped += 1;
            return Err(PageFault {
                pid,
                va,
                kind,
                reason: FaultReason::NotMapped,
            });
        }
        let write = kind == AccessKind::Write;
        if write && !leaf.pte.has(PteFlags::WRITABLE) {
            self.stats.faults_write_protected += 1;
            return Err(PageFault {
                pid,
                va,
                kind,
                reason: FaultReason::WriteProtected,
            });
        }
        // Success: update A/D bits (hardware does this during the walk; the
        // TLB-hit case skips the PTE write like real TLBs skip A updates).
        if !tlb_hit {
            let flags = if write {
                PteFlags::ACCESSED | PteFlags::DIRTY
            } else {
                PteFlags::ACCESSED
            };
            let p = &mut self.processes[pid.0];
            // Written through the walk above: no second walk.
            let pte = p
                .space
                .tables_mut()
                .or_flags_at(&mut self.mem, &leaf, flags);
            let evicted = p.tlb.fill(
                va,
                TlbEntry {
                    pte,
                    huge: leaf.huge,
                },
            );
            if self.obs.surface_enabled() {
                let fused = self.frame_fused(pte.frame());
                self.obs.surface_mut().record_tlb_fill(fused);
                if let Some(e) = evicted {
                    let victim_fused = self.frame_fused(e.pte.frame());
                    self.obs.surface_mut().record_tlb_eviction(victim_fused);
                }
            }
        } else if write {
            // Set the dirty bit through one quiet walk (the TLB entry does
            // not record where its PTE lives).
            let base = if leaf.huge {
                va.huge_base()
            } else {
                va.page_base()
            };
            self.processes[pid.0].space.tables_mut().or_leaf_flags(
                &mut self.mem,
                base,
                PteFlags::DIRTY | PteFlags::ACCESSED,
            );
        }
        let pa = Self::resolve_pa(&leaf, va);
        self.phys_access(pa, leaf.pte.has(PteFlags::NO_CACHE));
        Ok(pa)
    }

    /// Timed read of one byte.
    pub fn read(&mut self, pid: Pid, va: VirtAddr) -> Result<u8, PageFault> {
        let pa = self.try_access(pid, va, AccessKind::Read)?;
        self.stats.reads += 1;
        Ok(self.mem.read_byte(pa))
    }

    /// Timed write of one byte.
    pub fn write(&mut self, pid: Pid, va: VirtAddr, value: u8) -> Result<(), PageFault> {
        let pa = self.try_access(pid, va, AccessKind::Write)?;
        self.stats.writes += 1;
        self.mem.write_byte(pa, value);
        Ok(())
    }

    /// The x86 `prefetch` instruction: never faults. Loads the line into
    /// the LLC iff a translation exists **and caching is not disabled** —
    /// setting PCD on (fake-)merged pages is how VUsion defeats the
    /// prefetch side channel (§7.1/§9.1).
    pub fn prefetch(&mut self, pid: Pid, va: VirtAddr) {
        self.stats.prefetches += 1;
        self.charge(COSTS.cpu_op);
        if let Some((leaf, _)) = self.translate(pid, va) {
            if leaf.pte.is_present() && !leaf.pte.has(PteFlags::NO_CACHE) {
                // NOTE: the reserved bit does *not* stop the prefetch — only
                // PCD does. An S⊕F implementation without PCD stays
                // vulnerable, which test suites verify.
                let pa = Self::resolve_pa(&leaf, va);
                self.llc_access_surfaced(pa);
            }
        }
    }

    /// `clflush` of the line containing `va` (attacker flushes its own
    /// accessible memory).
    pub fn clflush(&mut self, pid: Pid, va: VirtAddr) {
        self.charge(COSTS.cpu_op * 4);
        // `clflush` needs a valid, untrapped translation; on a reserved-bit
        // PTE it would fault like any access, so it flushes nothing here.
        if let Some(leaf) = self.leaf(pid, va) {
            if leaf.pte.is_trapped() {
                return;
            }
            let pa = Self::resolve_pa(&leaf, va);
            self.llc.flush(pa);
            self.trace_instant("cache", InstantKind::LlcFlush, pa.0);
        }
    }

    // ------------------------------------------------------------------
    // Default (non-fusion) fault handling
    // ------------------------------------------------------------------

    /// Handles demand paging and file CoW. Returns `false` for faults the
    /// kernel cannot resolve (e.g. reserved-bit traps, which only fusion
    /// policies create, or accesses outside any VMA).
    pub fn default_fault(&mut self, fault: &PageFault) -> bool {
        match fault.reason {
            FaultReason::NotMapped => {
                self.trace_begin("kernel", SpanKind::DemandPaging);
                let handled = self.demand_page(fault);
                self.trace_end(SpanKind::DemandPaging);
                handled
            }
            FaultReason::WriteProtected => {
                self.trace_begin("kernel", SpanKind::CowCopy);
                let handled = self.cow_write(fault);
                self.trace_end(SpanKind::CowCopy);
                handled
            }
            FaultReason::Trapped => false,
        }
    }

    fn demand_page(&mut self, fault: &PageFault) -> bool {
        let Some(vma) = self.processes[fault.pid.0]
            .space
            .find_vma(fault.va)
            .copied()
        else {
            return false;
        };
        match vma.backing {
            VmaBacking::Anon => {
                if self.cfg.thp && self.try_demand_huge(fault, &vma) {
                    return true;
                }
                // OOM (genuine or injected) leaves the fault unresolved:
                // counted, surfaced to the caller, never fatal here.
                let Ok(frame) = self.alloc_frame(PageType::Anon) else {
                    return false;
                };
                self.charge(COSTS.zero_page + COSTS.pte_update + COSTS.buddy_interaction);
                let mut flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::ACCESSED;
                if vma.prot.write {
                    flags |= PteFlags::WRITABLE;
                }
                let mapped = {
                    let (mem, buddy, procs) = self.mm_parts();
                    procs[fault.pid.0].space.tables_mut().map_page(
                        mem,
                        buddy,
                        fault.va.page_base(),
                        frame,
                        flags,
                    )
                };
                if mapped.is_err() {
                    // A table frame could not be allocated mid-map: give the
                    // data frame back and leave the fault unresolved.
                    self.note_oom();
                    let _ = self.put_frame(frame);
                    return false;
                }
                self.stats.demand_zero += 1;
                true
            }
            VmaBacking::File {
                file_id,
                offset_pages,
            } => {
                let page_in_vma = (fault.va.0 - vma.start.0) / PAGE_SIZE;
                let file_page = offset_pages + page_in_vma;
                self.charge(COSTS.copy_page + COSTS.pte_update + COSTS.buddy_interaction);
                let mapped = {
                    let (mem, buddy, procs) = self.mm_parts();
                    let loaded = procs[fault.pid.0].page_cache_load(mem, file_id, file_page, |m| {
                        let f = buddy.alloc()?;
                        m.info_mut(f).on_alloc(PageType::PageCache);
                        Ok(f)
                    });
                    loaded.map(|frame| {
                        // The mapping takes its own reference on top of the
                        // cache's.
                        mem.info_mut(frame).get();
                        // File pages map read-only; private writes CoW.
                        let flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::ACCESSED;
                        let r = procs[fault.pid.0].space.tables_mut().map_page(
                            mem,
                            buddy,
                            fault.va.page_base(),
                            frame,
                            flags,
                        );
                        if r.is_err() {
                            // Undo the mapping's reference; the page stays
                            // cached for a later retry.
                            mem.info_mut(frame).put();
                        }
                        r
                    })
                };
                match mapped {
                    Ok(Ok(())) => {
                        self.stats.demand_file += 1;
                        true
                    }
                    Ok(Err(_)) | Err(_) => {
                        self.note_oom();
                        false
                    }
                }
            }
        }
    }

    fn try_demand_huge(&mut self, fault: &PageFault, vma: &Vma) -> bool {
        if !vma.thp_eligible {
            return false; // MADV_NOHUGEPAGE.
        }
        let base = fault.va.huge_base();
        // The whole 2 MiB range must lie inside the VMA and the PD slot
        // must be empty.
        if base.0 < vma.start.0 || base.0 + HUGE_PAGE_SIZE > vma.end().0 {
            return false;
        }
        if !self.processes[fault.pid.0]
            .space
            .tables()
            .huge_slot_free(&self.mem, base)
        {
            return false;
        }
        let Some(frame) = self.alloc_huge(PageType::Anon) else {
            return false; // Fragmented: fall back to 4 KiB.
        };
        // A 2 MiB zero-fill costs 512 page zeroes; hardware does it faster,
        // charge half.
        self.charge(
            COSTS.zero_page * HUGE_PAGE_FRAMES / 2 + COSTS.pte_update + COSTS.buddy_interaction,
        );
        let mut flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::ACCESSED;
        if vma.prot.write {
            flags |= PteFlags::WRITABLE;
        }
        let mapped = {
            let (mem, buddy, procs) = self.mm_parts();
            procs[fault.pid.0]
                .space
                .tables_mut()
                .map_huge(mem, buddy, base, frame, flags)
        };
        if mapped.is_err() {
            // A table frame could not be allocated: release the huge block
            // and fall back to the 4 KiB path.
            self.note_oom();
            let _ = self.free_huge(frame);
            return false;
        }
        self.stats.demand_huge += 1;
        true
    }

    fn cow_write(&mut self, fault: &PageFault) -> bool {
        let Some(vma) = self.processes[fault.pid.0]
            .space
            .find_vma(fault.va)
            .copied()
        else {
            return false;
        };
        if !vma.prot.write {
            return false; // A genuine protection violation.
        }
        let Some(leaf) = self.leaf(fault.pid, fault.va) else {
            return false;
        };
        if leaf.huge {
            return false; // CoW on huge mappings is handled by policies.
        }
        let old = leaf.pte.frame();
        // OOM on the CoW copy is a countable event: the write simply stays
        // unresolved (the guest would be OOM-killed; the simulation reports
        // it through SystemStats instead).
        let Ok(new) = self.alloc_frame(PageType::Anon) else {
            return false;
        };
        self.mem.copy_page(old, new);
        self.charge(COSTS.copy_page + COSTS.pte_update + COSTS.buddy_interaction);
        let pte = Pte::new(
            new,
            PteFlags::PRESENT
                | PteFlags::USER
                | PteFlags::WRITABLE
                | PteFlags::ACCESSED
                | PteFlags::DIRTY,
        );
        if self.set_leaf(fault.pid, fault.va.page_base(), pte).is_err() {
            let _ = self.put_frame(new);
            return false;
        }
        // The old frame may be shared (page cache); a rejected free would
        // mean the refcount was already wrong, which put_frame reports.
        let _ = self.put_frame(old);
        self.stats.cow_copies += 1;
        true
    }

    // ------------------------------------------------------------------
    // Rowhammer
    // ------------------------------------------------------------------

    /// Hammers the DRAM rows containing two of the attacker's own virtual
    /// addresses. Applies any induced flips to physical memory and returns
    /// them. Charges the (substantial) time hammering takes.
    pub fn hammer(
        &mut self,
        pid: Pid,
        va1: VirtAddr,
        va2: VirtAddr,
        iterations: u64,
    ) -> Vec<FlipEvent> {
        self.record(|| JournalEvent::Hammer {
            pid,
            va1,
            va2,
            iterations,
        });
        let Some(p1) = self.translate_quiet(pid, va1) else {
            return Vec::new();
        };
        let Some(p2) = self.translate_quiet(pid, va2) else {
            return Vec::new();
        };
        // Alternating activations are row conflicts by construction.
        self.sleep(iterations * 2 * COSTS.dram_row_conflict);
        let outcome = self.hammer.hammer(p1, p2, iterations);
        let mut applied = Vec::new();
        for flip in outcome.flips {
            if flip.addr.frame().0 < self.cfg.frames {
                self.mem.flip_bit(flip.addr, flip.bit);
                self.stats.bit_flips += 1;
                self.trace_instant("dram", InstantKind::BitFlip, flip.addr.0);
                applied.push(flip);
            }
        }
        applied
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Allocated frames (the memory-consumption metric of Figures 10–12).
    pub fn allocated_frames(&self) -> usize {
        self.mem.allocated_frames()
    }

    /// Audits frame accounting against the page tables and returns every
    /// violation found (empty = healthy). Two invariants must hold no
    /// matter what sequence of merges, unmerges, and injected failures the
    /// machine went through:
    ///
    /// 1. every present leaf PTE points at an in-bounds, *allocated* frame
    ///    with a non-zero refcount (no mapped-after-free), and
    /// 2. no frame is referenced by more leaf mappings than its refcount
    ///    (engines may hold extra references — tree nodes, deferred-free
    ///    queues — so `mappings ≤ refcount` is the sound direction; more
    ///    mappings than references means a refcount underflow), and
    /// 3. every *shared* frame (refcount > 1) is mapped read-only or
    ///    reserved-bit-trapped in every leaf PTE that references it — a
    ///    writable mapping of a shared frame would let one process corrupt
    ///    another's memory, the exact bug class fusion engines must never
    ///    introduce (§2, §7.1).
    ///
    /// Chaos tests call this after every fault-injected churn round.
    pub fn audit_frames(&self) -> Vec<String> {
        let mut mapped: BTreeMap<FrameId, u32> = BTreeMap::new();
        let mut violations = Vec::new();
        for (i, p) in self.processes.iter().enumerate() {
            for vma in p.space.vmas() {
                let mut pg = 0;
                while pg < vma.pages {
                    let va = VirtAddr(vma.start.0 + pg * PAGE_SIZE);
                    let Some(leaf) = p.space.tables().leaf(&self.mem, va) else {
                        pg += 1;
                        continue;
                    };
                    if !leaf.pte.is_present() {
                        pg += 1;
                        continue;
                    }
                    let frame = leaf.pte.frame();
                    // A huge mapping references one head frame; step over
                    // the whole region so it is counted once.
                    let step = if leaf.huge {
                        HUGE_PAGE_SIZE / PAGE_SIZE
                    } else {
                        1
                    };
                    if frame.0 >= self.cfg.frames {
                        violations.push(format!(
                            "p{i} {va:?}: leaf points outside physical memory ({frame:?})"
                        ));
                        pg += step;
                        continue;
                    }
                    let info = self.mem.info(frame);
                    if info.state != FrameState::Allocated {
                        violations.push(format!(
                            "p{i} {va:?}: mapped frame {frame:?} is {:?} (use after free)",
                            info.state
                        ));
                    }
                    if info.refcount == 0 {
                        violations.push(format!(
                            "p{i} {va:?}: mapped frame {frame:?} has refcount 0"
                        ));
                    }
                    if info.refcount > 1
                        && leaf.pte.has(PteFlags::WRITABLE)
                        && !leaf.pte.is_trapped()
                    {
                        violations.push(format!(
                            "p{i} {va:?}: shared frame {frame:?} (refcount {}) mapped writable",
                            info.refcount
                        ));
                    }
                    *mapped.entry(frame).or_insert(0) += 1;
                    pg += step;
                }
            }
        }
        for (frame, count) in mapped {
            let refcount = self.mem.info(frame).refcount;
            if count > refcount {
                violations.push(format!(
                    "{frame:?}: {count} leaf mappings but refcount {refcount} (underflow)"
                ));
            }
        }
        violations
    }

    /// Counts 2 MiB mappings currently installed for a process's anonymous
    /// VMAs (the Figure 9 metric).
    pub fn count_huge_mappings(&self, pid: Pid) -> usize {
        let p = &self.processes[pid.0];
        let mut n = 0;
        for vma in p.space.vmas() {
            let mut va = VirtAddr(vma.start.0).huge_base();
            if va.0 < vma.start.0 {
                va = VirtAddr(va.0 + HUGE_PAGE_SIZE);
            }
            while va.0 + HUGE_PAGE_SIZE <= vma.end().0 {
                if let Some(leaf) = p.space.tables().leaf(&self.mem, va) {
                    if leaf.huge {
                        n += 1;
                    }
                }
                va = VirtAddr(va.0 + HUGE_PAGE_SIZE);
            }
        }
        n
    }
}

/// Checkpoint / restore of the complete machine state: physical frames
/// and their metadata, the buddy allocator, caches, DRAM row buffers,
/// clock, every RNG stream, injectors, and all processes (address spaces,
/// TLBs, page caches). The journal is *not* included — a snapshot is
/// state at a point in time; the journal is what happened after it, and
/// the two travel separately in failure bundles. `load` targets a machine
/// built with the *same configuration*: geometry and seed are verified,
/// and the Rowhammer model, a pure function of the configuration, is not
/// serialized. The journal is left untouched.
impl Snapshot for Machine {
    fn save(&self, w: &mut Writer) {
        w.u64(self.cfg.frames);
        w.u64(self.cfg.seed);
        self.mem.save(w);
        self.buddy.save(w);
        self.llc.save(w);
        self.rows.save(w);
        w.u64(self.clock.now_ns());
        self.jitter.save(w);
        self.scan_injector.save(w);
        self.crash_injector.save(w);
        w.usize(self.processes.len());
        for p in &self.processes {
            w.str(&p.name);
            p.space.save(w);
            p.tlb.save(w);
            let mut entries: Vec<(u64, u64, u64)> = p
                .page_cache
                .iter()
                .map(|(&(file, page), &frame)| (file, page, frame.0))
                .collect();
            entries.sort_unstable();
            w.usize(entries.len());
            for (file, page, frame) in entries {
                w.u64(file);
                w.u64(page);
                w.u64(frame);
            }
        }
        let s = self.stats;
        for v in [
            s.reads,
            s.writes,
            s.prefetches,
            s.faults_not_mapped,
            s.faults_trapped,
            s.faults_write_protected,
            s.demand_zero,
            s.demand_huge,
            s.demand_file,
            s.cow_copies,
            s.bit_flips,
            s.oom_events,
            s.scan_retries,
            s.deferred_drains,
            s.scan.pages_scanned,
            s.scan.pages_merged,
            s.scan.pages_fake_merged,
            s.scan.pages_skipped_active,
            s.scan.pages_skipped_clean,
            s.scan.huge_pages_broken,
        ] {
            w.u64(v);
        }
        // `scan_shard_cost` is deliberately NOT serialized: cost
        // attribution depends on hash-memo warmth (a pure-function cache
        // that does not travel through snapshots), so like the tracer it
        // is observability-local state, reset on restore.
    }

    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let Self {
            cfg,
            mem,
            buddy,
            llc,
            rows,
            hammer: _, // a pure function of `cfg`, never mutated
            clock,
            jitter,
            scan_injector,
            crash_injector,
            processes,
            stats,
            journal: _,         // what happened after the snapshot; travels beside it
            journal_on: _,      // whether the live run records, not machine state
            journal_suspend: _, // non-zero only inside a composite operation
            obs: _,             // describes a run, not machine state
            scan_shard_cost,
        } = self;
        if r.u64()? != cfg.frames || r.u64()? != cfg.seed {
            return Err(SnapshotError::Corrupt("machine config mismatch"));
        }
        mem.load(r)?;
        buddy.load(r)?;
        llc.load(r)?;
        rows.load(r)?;
        *clock = SimClock::new();
        clock.advance(r.u64()?);
        *jitter = Jitter::load(r)?;
        scan_injector.load(r)?;
        crash_injector.load(r)?;
        let n = r.usize()?;
        processes.clear();
        for _ in 0..n {
            let name = r.str()?;
            let space = AddressSpace::load(r)?;
            let mut tlb = Tlb::skylake();
            tlb.load(r)?;
            let mut page_cache = BTreeMap::new();
            let entries = r.usize()?;
            for _ in 0..entries {
                let file = r.u64()?;
                let page = r.u64()?;
                let frame = FrameId(r.u64()?);
                page_cache.insert((file, page), frame);
            }
            processes.push(Process {
                name,
                space,
                tlb,
                page_cache,
            });
        }
        *stats = MachineStats {
            reads: r.u64()?,
            writes: r.u64()?,
            prefetches: r.u64()?,
            faults_not_mapped: r.u64()?,
            faults_trapped: r.u64()?,
            faults_write_protected: r.u64()?,
            demand_zero: r.u64()?,
            demand_huge: r.u64()?,
            demand_file: r.u64()?,
            cow_copies: r.u64()?,
            bit_flips: r.u64()?,
            oom_events: r.u64()?,
            injected_faults: 0, // `stats()` counts it from the injectors
            scan_retries: r.u64()?,
            deferred_drains: r.u64()?,
            scan: ScanCounts {
                pages_scanned: r.u64()?,
                pages_merged: r.u64()?,
                pages_fake_merged: r.u64()?,
                pages_skipped_active: r.u64()?,
                pages_skipped_clean: r.u64()?,
                huge_pages_broken: r.u64()?,
            },
        };
        // Observability state, like the tracer: reset, not carried.
        *scan_shard_cost = [0; LOGICAL_SCAN_SHARDS];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_mmu::Protection;

    fn machine() -> Machine {
        Machine::new(MachineConfig::test_small())
    }

    fn anon_vma(m: &mut Machine, pid: Pid, start: u64, pages: u64) {
        m.mmap(pid, Vma::anon(VirtAddr(start), pages, Protection::rw()));
    }

    #[test]
    fn snapshot_round_trips_every_field() {
        let cfg = MachineConfig::test_small().with_crash_plan(CrashPlan::at(CrashSite::MidScan, 9));
        let mut src = Machine::new(cfg);
        let a = src.spawn("a").expect("spawn");
        let b = src.spawn("b").expect("spawn");
        anon_vma(&mut src, a, 0x10000, 4);
        let file = VirtAddr(0x2000_0000);
        src.mmap(b, Vma::file(file, 2, Protection::rw(), 9, 0));
        for (pid, va) in [(a, VirtAddr(0x10000)), (a, VirtAddr(0x12000))] {
            while let Err(fault) = src.write(pid, va, 0x5a) {
                assert!(src.default_fault(&fault), "demand paging resolves it");
            }
            src.prefetch(pid, va);
        }
        let fault = src.read(b, file).expect_err("file page not yet cached");
        assert!(src.default_fault(&fault));
        src.arm_crashes();
        assert!(!src.crash_now(CrashSite::MidScan));
        let plan = FaultPlan {
            alloc_every_nth: 3,
            alloc_fail_prob: 0.4,
            checksum_corrupt_prob: 0.25,
            scan_bitflip_prob: 0.15,
        };
        src.scan_injector = FaultInjector::new(plan, 77);
        src.stats = MachineStats {
            reads: 101,
            writes: 102,
            prefetches: 103,
            faults_not_mapped: 104,
            faults_trapped: 105,
            faults_write_protected: 106,
            demand_zero: 107,
            demand_huge: 108,
            demand_file: 109,
            cow_copies: 110,
            bit_flips: 111,
            oom_events: 112,
            injected_faults: 0, // not saved: `stats()` counts it
            scan_retries: 114,
            deferred_drains: 115,
            scan: ScanCounts {
                pages_scanned: 116,
                pages_merged: 117,
                pages_fake_merged: 118,
                pages_skipped_active: 119,
                pages_skipped_clean: 120,
                huge_pages_broken: 121,
            },
        };
        let mut dst = Machine::new(cfg);
        let (x, y) = vusion_snapshot::resave(&src, &mut dst).expect("resave");
        assert_eq!(x, y);
    }

    #[test]
    fn demand_zero_then_read_write() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 4);
        let va = VirtAddr(0x10000);
        // First access faults NotMapped.
        let fault = m.read(pid, va).expect_err("must fault");
        assert_eq!(fault.reason, FaultReason::NotMapped);
        assert!(m.default_fault(&fault), "demand paging handles it");
        assert_eq!(m.read(pid, va).expect("mapped now"), 0);
        m.write(pid, va, 0xAA).expect("writable");
        assert_eq!(m.read(pid, va).expect("read back"), 0xAA);
        assert_eq!(m.stats().demand_zero, 1);
    }

    #[test]
    fn access_outside_vma_unhandled() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        let fault = m.read(pid, VirtAddr(0xdead_0000)).expect_err("must fault");
        assert!(!m.default_fault(&fault), "no VMA covers it");
    }

    #[test]
    fn file_pages_shared_within_process_and_cow_on_write() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        m.mmap(
            pid,
            Vma::file(VirtAddr(0x2000_0000), 4, Protection::rw(), 9, 0),
        );
        let va = VirtAddr(0x2000_0000);
        let fault = m.read(pid, va).expect_err("fault");
        assert!(m.default_fault(&fault));
        let frame_before = m.leaf(pid, va).expect("leaf").pte.frame();
        assert_eq!(m.mem().info(frame_before).page_type, PageType::PageCache);
        // Write triggers CoW to a private anon frame; cache keeps the original.
        let wf = m.write(pid, va, 1).expect_err("read-only mapping");
        assert_eq!(wf.reason, FaultReason::WriteProtected);
        assert!(m.default_fault(&wf));
        m.write(pid, va, 1).expect("now writable");
        let frame_after = m.leaf(pid, va).expect("leaf").pte.frame();
        assert_ne!(frame_before, frame_after);
        assert_eq!(m.mem().info(frame_after).page_type, PageType::Anon);
        assert_eq!(m.stats().cow_copies, 1);
        // The cache still holds the pristine page.
        assert_eq!(m.mem().info(frame_before).refcount, 1);
    }

    #[test]
    fn trapped_pte_faults_on_read_and_write() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 1);
        let va = VirtAddr(0x10000);
        let f = m.read(pid, va).expect_err("fault");
        m.default_fault(&f);
        // Trap the page the way S⊕F does.
        let leaf = m.leaf(pid, va).expect("leaf");
        m.set_leaf(
            pid,
            va,
            leaf.pte.set(PteFlags::RESERVED | PteFlags::NO_CACHE),
        )
        .expect("set leaf");
        let rf = m.read(pid, va).expect_err("trapped");
        assert_eq!(rf.reason, FaultReason::Trapped);
        let wf = m.write(pid, va, 1).expect_err("trapped");
        assert_eq!(wf.reason, FaultReason::Trapped);
        assert!(
            !m.default_fault(&rf),
            "the kernel cannot resolve policy traps"
        );
    }

    #[test]
    fn trap_faults_even_after_tlb_fill() {
        // Setting the reserved bit must take effect immediately: set_leaf
        // shoots down the TLB entry.
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 1);
        let va = VirtAddr(0x10000);
        let f = m.read(pid, va).expect_err("fault");
        m.default_fault(&f);
        m.read(pid, va).expect("fills TLB");
        let leaf = m.leaf(pid, va).expect("leaf");
        m.set_leaf(pid, va, leaf.pte.set(PteFlags::RESERVED))
            .expect("set leaf");
        assert!(
            m.read(pid, va).is_err(),
            "stale TLB entry would be a security hole"
        );
    }

    #[test]
    fn timing_separates_fault_from_plain_access() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 2);
        // Fault-in page 0.
        let f = m.read(pid, VirtAddr(0x10000)).expect_err("fault");
        m.default_fault(&f);
        // Warm access.
        let t0 = m.now_ns();
        m.read(pid, VirtAddr(0x10000)).expect("warm");
        let warm = m.now_ns() - t0;
        // Faulting access (to page 1), including handler work.
        let t1 = m.now_ns();
        let f1 = m.read(pid, VirtAddr(0x11000)).expect_err("fault");
        m.charge(COSTS.fault_base);
        m.default_fault(&f1);
        m.read(pid, VirtAddr(0x11000)).expect("after handling");
        let faulted = m.now_ns() - t1;
        assert!(
            faulted > warm * 5,
            "fault path ({faulted} ns) must dwarf warm access ({warm} ns)"
        );
    }

    #[test]
    fn thp_demand_fault_maps_huge() {
        let mut m = Machine::new(MachineConfig::test_small().with_thp());
        let pid = m.spawn("t").expect("spawn");
        // A VMA covering two full huge ranges, 2 MiB aligned.
        m.mmap(
            pid,
            Vma::anon(VirtAddr(HUGE_PAGE_SIZE), 1024, Protection::rw()),
        );
        let va = VirtAddr(HUGE_PAGE_SIZE + 0x3000);
        let f = m.read(pid, va).expect_err("fault");
        assert!(m.default_fault(&f));
        let leaf = m.leaf(pid, va).expect("leaf");
        assert!(leaf.huge, "THP machine installs a 2 MiB mapping");
        assert_eq!(m.stats().demand_huge, 1);
        assert_eq!(m.count_huge_mappings(pid), 1);
        // The whole range is readable without further faults.
        m.read(pid, VirtAddr(HUGE_PAGE_SIZE)).expect("mapped");
        m.read(pid, VirtAddr(2 * HUGE_PAGE_SIZE - 1))
            .expect("mapped");
    }

    #[test]
    fn prefetch_fills_cache_unless_pcd() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 1);
        let va = VirtAddr(0x10000);
        let f = m.read(pid, va).expect_err("fault");
        m.default_fault(&f);
        let pa = m.translate_quiet(pid, va).expect("mapped");
        // Flush, prefetch: line comes back.
        m.clflush(pid, va);
        assert!(!m.llc().contains(pa));
        m.prefetch(pid, va);
        assert!(m.llc().contains(pa), "prefetch loads cacheable lines");
        // With PCD set (and even with RESERVED), prefetch must not load.
        // Flush first: clflush itself refuses trapped PTEs (it would fault).
        m.clflush(pid, va);
        let leaf = m.leaf(pid, va).expect("leaf");
        m.set_leaf(
            pid,
            va,
            leaf.pte.set(PteFlags::RESERVED | PteFlags::NO_CACHE),
        )
        .expect("set leaf");
        m.prefetch(pid, va);
        assert!(!m.llc().contains(pa), "PCD stops the prefetch side channel");
    }

    #[test]
    fn prefetch_on_trapped_cacheable_page_leaks() {
        // The reason VUsion must set PCD: a reserved-bit trap alone does
        // not stop prefetch.
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 1);
        let va = VirtAddr(0x10000);
        let f = m.read(pid, va).expect_err("fault");
        m.default_fault(&f);
        let pa = m.translate_quiet(pid, va).expect("mapped");
        let leaf = m.leaf(pid, va).expect("leaf");
        m.set_leaf(pid, va, leaf.pte.set(PteFlags::RESERVED))
            .expect("set leaf"); // No PCD!
        m.clflush(pid, va);
        m.prefetch(pid, va);
        assert!(
            m.llc().contains(pa),
            "without PCD the prefetch side channel remains"
        );
    }

    #[test]
    fn hammer_applies_reproducible_flips() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 64);
        // Map the first 64 pages.
        for i in 0..64u64 {
            let va = VirtAddr(0x10000 + i * PAGE_SIZE);
            let f = m.read(pid, va).expect_err("fault");
            m.default_fault(&f);
        }
        // Hammer around every page until a flip lands somewhere.
        let mut total = 0;
        for i in 1..63u64 {
            let a = VirtAddr(0x10000);
            let b = VirtAddr(0x10000 + i * PAGE_SIZE);
            total += m.hammer(pid, a, b, 2_000_000).len();
        }
        assert_eq!(m.stats().bit_flips as usize, total);
    }

    #[test]
    fn put_frame_frees_at_zero() {
        let mut m = machine();
        let f = m.alloc_frame(PageType::Anon).expect("frame");
        m.mem_mut().info_mut(f).get();
        assert!(!m.put_frame(f).expect("put"), "still referenced");
        assert!(m.put_frame(f).expect("put"), "last reference frees");
    }

    #[test]
    fn tlb_hit_skips_walk_cost() {
        let mut m = machine();
        let pid = m.spawn("t").expect("spawn");
        anon_vma(&mut m, pid, 0x10000, 1);
        let va = VirtAddr(0x10000);
        let f = m.read(pid, va).expect_err("fault");
        m.default_fault(&f);
        m.read(pid, va).expect("fill TLB and caches");
        m.read(pid, va).expect("warm");
        let t0 = m.now_ns();
        m.read(pid, va).expect("hot");
        let hot = m.now_ns() - t0;
        // A hot access is one cpu op + one LLC hit, well under 40 ns.
        assert!(hot < 40, "hot TLB+LLC access took {hot} ns");
    }
}
