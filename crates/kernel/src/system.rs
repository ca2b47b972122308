//! The system driver: glues the machine, a fusion policy, and the daemons.
//!
//! Workloads and attacks talk to a [`System`]; it retries faulting accesses
//! after dispatching faults (policy first, kernel default second) and paces
//! the background scanner and `khugepaged` against simulated time, mirroring
//! how `ksmd` wakes every `T` ms on a spare core.

use vusion_mem::{MmError, VirtAddr, PAGE_SIZE};
use vusion_obs::{FaultKind, InstantKind, MetricsSnapshot, PageClass, Profile, SpanKind};
use vusion_snapshot::{Reader, Snapshot, SnapshotError, Writer};

use crate::journal::JournalEvent;
use crate::khugepaged::{self, Khugepaged};
use crate::machine::{FaultReason, Machine, PageFault, Pid};
use crate::policy::{FusionPolicy, ScanGrant};
use crate::pressure::{PressureBand, PressureConfig, PressureGovernor};

/// Driver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Faults resolved by the fusion policy.
    pub policy_faults: u64,
    /// Faults resolved by the kernel default handler.
    pub kernel_faults: u64,
    /// Scanner wakeups executed.
    pub scan_wakeups: u64,
    /// Accesses that no handler could resolve (the simulated SIGSEGVs).
    pub unresolved_faults: u64,
    /// Accesses abandoned after the retry budget (fault livelocks).
    pub fault_livelocks: u64,
}

/// Everything observability knows about a run, bundled for reporting:
/// the engine under test, a full metrics snapshot, and the per-phase
/// cycle-attribution profile (the paper's Table 5 breakdown).
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Engine name ("ksm", "wpf", "vusion", "none").
    pub engine: String,
    /// Counters, gauges and latency histograms at report time.
    pub metrics: MetricsSnapshot,
    /// Cycle attribution per category and span kind.
    pub profile: Profile,
}

impl SystemReport {
    /// Human-readable report: the cycle-attribution table followed by the
    /// metrics snapshot.
    pub fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== system report: engine={} ==\n", self.engine));
        if self.profile.is_empty() {
            out.push_str("(no spans recorded; was tracing enabled?)\n");
        } else {
            out.push_str(&self.profile.text());
        }
        out.push_str("-- metrics --\n");
        out.push_str(&self.metrics.to_json());
        out.push('\n');
        out
    }

    /// The whole report as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"engine\":{},\"profile\":{},\"metrics\":{}}}",
            vusion_obs::json::quote(&self.engine),
            self.profile.to_json(),
            self.metrics.to_json()
        )
    }
}

/// A machine paired with a fusion policy and optional khugepaged.
pub struct System<P: FusionPolicy> {
    /// The machine.
    pub machine: Machine,
    /// The fusion engine.
    pub policy: P,
    /// Optional THP collapse daemon.
    pub khugepaged: Option<Khugepaged>,
    next_scan_ns: u64,
    next_khuge_ns: u64,
    stats: SystemStats,
    governor: PressureGovernor,
}

impl<P: FusionPolicy> System<P> {
    /// Creates a driver. The first scan fires one period in.
    pub fn new(machine: Machine, policy: P) -> Self {
        let next_scan_ns = machine.now_ns() + policy.scan_period_ns();
        Self {
            machine,
            policy,
            khugepaged: None,
            next_scan_ns,
            next_khuge_ns: 0,
            stats: SystemStats::default(),
            governor: PressureGovernor::new(PressureConfig::OFF),
        }
    }

    /// Attaches a khugepaged daemon.
    pub fn with_khugepaged(mut self, k: Khugepaged) -> Self {
        self.next_khuge_ns = self.machine.now_ns() + khugepaged::PERIOD_NS;
        self.khugepaged = Some(k);
        self
    }

    /// Driver counters.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Installs (or replaces) the pressure governor. Journaled: the
    /// governor changes scan behavior, so a replay must re-install the
    /// same control law at the same point in the call sequence. Returns
    /// the config's validation error without installing if it is
    /// malformed (a disabled config always installs).
    pub fn set_pressure_governor(&mut self, cfg: PressureConfig) -> Result<(), &'static str> {
        if cfg.enabled {
            cfg.validate()?;
        }
        self.machine
            .record(|| JournalEvent::SetPressureGovernor { cfg });
        self.governor = PressureGovernor::new(cfg);
        Ok(())
    }

    /// The pressure governor (band, budget, and ladder counters).
    pub fn pressure_governor(&self) -> &PressureGovernor {
        &self.governor
    }

    /// One scanner wakeup: the governor samples the pressure signal and
    /// walks the escalation ladder, the policy scans under the sample's
    /// [`ScanGrant`] inside a `ScanPass` span, then the pages it visited
    /// are accounted against the grant's budget. With the governor
    /// disabled this is exactly the pre-governor wakeup: no sample, a
    /// default grant, no `pressure.*` side effects.
    fn scan_once(&mut self) {
        let grant = if self.governor.enabled() {
            let d = self.governor.sample(&self.machine);
            if let Some(prev) = d.escalated_from {
                self.machine.trace_instant(
                    "governor",
                    InstantKind::PressureEscalation,
                    d.band.code() as u64,
                );
                self.escalate_rungs(prev, d.band);
            }
            if let Some(prev) = d.de_escalated_from {
                self.machine.trace_instant(
                    "governor",
                    InstantKind::PressureDeEscalation,
                    d.band.code() as u64,
                );
                if prev == PressureBand::Critical {
                    // Rung 3 unwinds with the band: the next grant no
                    // longer defers allocation.
                    self.governor.note_defer_exit();
                }
            }
            ScanGrant {
                budget: Some(d.budget),
                defer_alloc: d.band == PressureBand::Critical,
            }
        } else {
            ScanGrant::default()
        };
        self.machine
            .trace_begin(self.policy.name(), SpanKind::ScanPass);
        let visited = self.policy.scan(&mut self.machine, grant);
        self.machine.trace_end(SpanKind::ScanPass);
        if let Some(granted) = grant.budget {
            self.governor.account_budget(granted, visited);
        }
        self.stats.scan_wakeups += 1;
    }

    /// Fires the ladder rungs crossed by an escalation from `prev` to
    /// `band`, in order: drain (rung 1) on entering Elevated, shrink
    /// (rung 2) and allocation deferral (rung 3) on entering Critical.
    /// A nominal → critical jump fires all three. Rung 3 has no engine
    /// hook: it is the `defer_alloc` of every grant while the band stays
    /// Critical, so only its entry is counted here.
    fn escalate_rungs(&mut self, prev: PressureBand, band: PressureBand) {
        if prev < PressureBand::Elevated && band >= PressureBand::Elevated {
            self.machine
                .trace_begin("governor", SpanKind::PressureRelief);
            let ops = self.policy.pressure_drain(&mut self.machine);
            self.machine.trace_end(SpanKind::PressureRelief);
            self.governor.note_drain(ops);
        }
        if prev < PressureBand::Critical && band >= PressureBand::Critical {
            self.machine
                .trace_begin("governor", SpanKind::PressureRelief);
            let entries = self.policy.pressure_shrink(&mut self.machine);
            self.machine.trace_end(SpanKind::PressureRelief);
            self.governor.note_shrink(entries);
            self.governor.note_defer_entry();
        }
    }

    /// Runs any background work whose deadline has passed.
    fn background(&mut self) {
        let now = self.machine.now_ns();
        while self.next_scan_ns <= now {
            self.scan_once();
            self.next_scan_ns += self.policy.scan_period_ns();
        }
        if let Some(k) = self.khugepaged.as_mut() {
            while self.next_khuge_ns <= now {
                self.machine
                    .trace_begin("khugepaged", SpanKind::ThpCollapse);
                k.scan(&mut self.machine, &mut self.policy);
                self.machine.trace_end(SpanKind::ThpCollapse);
                self.next_khuge_ns += khugepaged::PERIOD_NS;
            }
        }
    }

    /// Resolves one fault: charges the fault entry, then policy → kernel.
    /// Reports [`MmError::UnresolvableFault`] when no handler takes it —
    /// the simulated equivalent of delivering SIGSEGV.
    fn resolve(&mut self, fault: PageFault) -> Result<(), MmError> {
        let tracing = self.machine.obs().enabled();
        let surfacing = self.machine.surface_enabled();
        let timing = tracing || surfacing;
        let t0 = if timing { self.machine.now_ns() } else { 0 };
        // The surface classifies the fault by the page as the *attacker*
        // found it: the leaf before handling (handling may replace it).
        // No leaf means a demand fault; whether it was a zero fill is
        // known only afterwards, via the demand_zero counter delta.
        let pre_class = if surfacing {
            self.machine
                .leaf(fault.pid, fault.va)
                .map(|l| self.machine.classify_leaf(&l))
        } else {
            None
        };
        let zero_before = if surfacing {
            self.machine.stats().demand_zero
        } else {
            0
        };
        if tracing {
            self.machine
                .trace_begin(self.policy.name(), SpanKind::FaultHandling);
        }
        let base = self.machine.costs().fault_base;
        self.machine.charge(base);
        let outcome = if self.policy.handle_fault(&mut self.machine, &fault) {
            self.stats.policy_faults += 1;
            Ok(())
        } else if self.machine.default_fault(&fault) {
            self.stats.kernel_faults += 1;
            Ok(())
        } else {
            self.stats.unresolved_faults += 1;
            Err(MmError::UnresolvableFault(fault.va))
        };
        if tracing {
            self.machine.trace_end(SpanKind::FaultHandling);
        }
        if timing {
            let dt = self.machine.now_ns().saturating_sub(t0);
            if tracing {
                self.machine.obs_mut().observe_fault_latency(dt as f64);
            }
            if surfacing {
                let kind = match fault.reason {
                    FaultReason::NotMapped => FaultKind::Minor,
                    FaultReason::Trapped => FaultKind::Trap,
                    FaultReason::WriteProtected => FaultKind::CowBreak,
                };
                let class = match pre_class {
                    Some(c) => c,
                    None if self.machine.stats().demand_zero > zero_before => PageClass::Zero,
                    None => PageClass::Unshared,
                };
                self.machine.surface_record_fault(class, kind, dt);
            }
        }
        outcome
    }

    /// Timed read of one byte, retrying through faults. Reports
    /// [`MmError::UnresolvableFault`] (SIGSEGV) or
    /// [`MmError::FaultLivelock`] when the retry budget is exhausted.
    pub fn try_read(&mut self, pid: Pid, va: VirtAddr) -> Result<u8, MmError> {
        self.machine.record(|| JournalEvent::Read { pid, va });
        self.background();
        for _ in 0..8 {
            match self.machine.read(pid, va) {
                Ok(v) => return Ok(v),
                Err(f) => self.resolve(f)?,
            }
        }
        self.stats.fault_livelocks += 1;
        Err(MmError::FaultLivelock(va))
    }

    /// Timed write of one byte, retrying through faults; errors as
    /// [`Self::try_read`].
    pub fn try_write(&mut self, pid: Pid, va: VirtAddr, value: u8) -> Result<(), MmError> {
        self.machine
            .record(|| JournalEvent::Write { pid, va, value });
        self.background();
        for _ in 0..8 {
            match self.machine.write(pid, va, value) {
                Ok(()) => return Ok(()),
                Err(f) => self.resolve(f)?,
            }
        }
        self.stats.fault_livelocks += 1;
        Err(MmError::FaultLivelock(va))
    }

    /// Timed read of one byte (retries through faults). The
    /// workload-facing convenience wrapper: an unresolvable access reads
    /// as 0 and is counted in [`SystemStats`]; callers that must observe
    /// the failure use [`Self::try_read`].
    pub fn read(&mut self, pid: Pid, va: VirtAddr) -> u8 {
        self.try_read(pid, va).unwrap_or(0)
    }

    /// Timed write of one byte (retries through faults). The
    /// workload-facing convenience wrapper: an unresolvable store is
    /// dropped and counted in [`SystemStats`]; callers that must observe
    /// the failure use [`Self::try_write`].
    pub fn write(&mut self, pid: Pid, va: VirtAddr, value: u8) {
        let _ = self.try_write(pid, va, value);
    }

    /// Prefetch (never faults).
    pub fn prefetch(&mut self, pid: Pid, va: VirtAddr) {
        self.machine.record(|| JournalEvent::Prefetch { pid, va });
        self.background();
        self.machine.prefetch(pid, va);
    }

    /// `clflush` of the line containing `va` (never faults). Journaled:
    /// the flush evicts an LLC line, and the timing side channel observes
    /// LLC state, so a replay must re-evict the same line at the same
    /// point in the call sequence.
    pub fn clflush(&mut self, pid: Pid, va: VirtAddr) {
        self.machine.record(|| JournalEvent::Clflush { pid, va });
        self.background();
        self.machine.clflush(pid, va);
    }

    /// Reads a whole page with realistic timing: a faulting first access,
    /// then one access per remaining cache line.
    pub fn read_page(&mut self, pid: Pid, va: VirtAddr) -> [u8; PAGE_SIZE as usize] {
        let base = va.page_base();
        // One composite event; the inner byte reads must not re-journal.
        self.machine.record(|| JournalEvent::ReadPage { pid, va });
        self.machine.suspend_journal();
        self.read(pid, base);
        for line in 1..(PAGE_SIZE / 64) {
            self.read(pid, VirtAddr(base.0 + line * 64));
        }
        self.machine.resume_journal();
        match self.machine.translate_quiet(pid, base) {
            Some(pa) => *self.machine.mem().page(pa.frame()),
            // The page never got mapped (OOM during demand paging): the
            // failed reads above observed zeroes; report the same.
            None => [0; PAGE_SIZE as usize],
        }
    }

    /// Writes a whole page: a faulting first store (which performs any
    /// CoW/CoA), then one store per remaining line; content lands in the
    /// backing frame.
    pub fn write_page(&mut self, pid: Pid, va: VirtAddr, content: &[u8; PAGE_SIZE as usize]) {
        let base = va.page_base();
        self.machine.record(|| JournalEvent::WritePage {
            pid,
            va,
            content: Box::new(*content),
        });
        self.machine.suspend_journal();
        self.write(pid, base, content[0]);
        for line in 1..(PAGE_SIZE / 64) {
            self.write(
                pid,
                VirtAddr(base.0 + line * 64),
                content[(line * 64) as usize],
            );
        }
        self.machine.resume_journal();
        if let Some(pa) = self.machine.translate_quiet(pid, base) {
            self.machine.mem_mut().write_page(pa.frame(), content);
        }
        // Else: the page never got mapped (OOM during demand paging); the
        // store is dropped like the byte-wise writes above.
    }

    /// Lets simulated time pass, running background daemons on schedule.
    pub fn idle(&mut self, ns: u64) {
        self.machine.record(|| JournalEvent::Idle { ns });
        let target = self.machine.now_ns() + ns;
        while self.machine.now_ns() < target {
            let step = (target - self.machine.now_ns()).min(self.policy.scan_period_ns().max(1));
            self.machine.sleep(step);
            self.background();
        }
    }

    /// Forces `n` scanner wakeups immediately (experiment helper; does not
    /// advance the clock).
    pub fn force_scans(&mut self, n: usize) {
        self.machine.record(|| JournalEvent::ForceScans { n });
        for _ in 0..n {
            self.scan_once();
        }
        // Treat the forced scans as having satisfied any pending deadlines,
        // so subsequent timed operations are not interrupted by catch-up
        // wakeups (experiments rely on this for clean measurements).
        self.next_scan_ns = self.machine.now_ns() + self.policy.scan_period_ns();
        if self.khugepaged.is_some() {
            self.next_khuge_ns = self.machine.now_ns() + khugepaged::PERIOD_NS;
        }
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// A point-in-time metrics snapshot: whatever the registry has
    /// accumulated, plus the structured machine/driver/scanner/hierarchy
    /// counters folded in under stable dotted names — one document
    /// captures the whole system. Diff two snapshots to isolate a phase.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.machine.obs().metrics().snapshot();
        let m = self.machine.stats();
        for (name, v) in [
            ("machine.reads", m.reads),
            ("machine.writes", m.writes),
            ("machine.prefetches", m.prefetches),
            ("machine.faults_not_mapped", m.faults_not_mapped),
            ("machine.faults_trapped", m.faults_trapped),
            ("machine.faults_write_protected", m.faults_write_protected),
            ("machine.demand_zero", m.demand_zero),
            ("machine.demand_huge", m.demand_huge),
            ("machine.demand_file", m.demand_file),
            ("machine.cow_copies", m.cow_copies),
            ("machine.bit_flips", m.bit_flips),
            ("machine.oom_events", m.oom_events),
            ("machine.injected_faults", m.injected_faults),
            ("machine.scan_retries", m.scan_retries),
            ("machine.deferred_drains", m.deferred_drains),
        ] {
            snap.set_counter(name, v);
        }
        let s = self.stats;
        for (name, v) in [
            ("system.policy_faults", s.policy_faults),
            ("system.kernel_faults", s.kernel_faults),
            ("system.scan_wakeups", s.scan_wakeups),
            ("system.unresolved_faults", s.unresolved_faults),
            ("system.fault_livelocks", s.fault_livelocks),
        ] {
            snap.set_counter(name, v);
        }
        // `scan.budget_used` (always `scan.pages_scanned`) and
        // `scan.pages_unmerged` (never counted) stay only because
        // simbench's pinned digests cover this document.
        let t = m.scan;
        for (name, v) in [
            ("scan.pages_scanned", t.pages_scanned),
            ("scan.pages_merged", t.pages_merged),
            ("scan.pages_fake_merged", t.pages_fake_merged),
            ("scan.pages_unmerged", 0),
            ("scan.pages_skipped_active", t.pages_skipped_active),
            ("scan.pages_skipped_clean", t.pages_skipped_clean),
            ("scan.huge_pages_broken", t.huge_pages_broken),
            ("scan.budget_used", t.pages_scanned),
        ] {
            snap.set_counter(name, v);
        }
        // Zero-cost-when-off: a disabled governor contributes nothing.
        if self.governor.enabled() {
            let p = self.governor.stats();
            for (name, v) in [
                ("pressure.samples", p.samples),
                ("pressure.escalations", p.escalations),
                ("pressure.de_escalations", p.de_escalations),
                ("pressure.drain_rungs", p.drain_rungs),
                ("pressure.drain_rungs_effective", p.drain_rungs_effective),
                ("pressure.shrink_rungs", p.shrink_rungs),
                ("pressure.defer_rungs", p.defer_rungs),
                ("pressure.defer_exits", p.defer_exits),
                ("pressure.drained_ops", p.drained_ops),
                ("pressure.shrunk_entries", p.shrunk_entries),
                ("pressure.budget_granted", p.budget_granted),
                ("pressure.budget_used", p.budget_used),
                ("pressure.budget_carried", p.budget_carried),
            ] {
                snap.set_counter(name, v);
            }
            snap.set_gauge("pressure.band", self.governor.band().code() as i64);
            snap.set_gauge("pressure.budget", self.governor.budget() as i64);
        }
        let shards = self.machine.scan_shard_costs();
        for (i, &ns) in shards.iter().enumerate() {
            snap.set_counter(&format!("scan.shard_cost_ns.{i}"), ns);
        }
        // Like pressure.*: a disabled surface contributes no keys at all.
        if self.machine.surface_enabled() {
            let surf = self.machine.obs().surface();
            for &class in &PageClass::ALL {
                for &kind in &FaultKind::ALL {
                    snap.set_counter(
                        &format!("surface.fault.{}.{}", class.name(), kind.name()),
                        surf.fault_count(class, kind),
                    );
                }
            }
            let (h, m, e) = surf.llc_counts();
            for (name, v) in [
                ("surface.llc.hits_fused", h[1]),
                ("surface.llc.hits_other", h[0]),
                ("surface.llc.misses_fused", m[1]),
                ("surface.llc.misses_other", m[0]),
                ("surface.llc.evictions_fused", e[1]),
                ("surface.llc.evictions_other", e[0]),
            ] {
                snap.set_counter(name, v);
            }
            let d = surf.dram_totals();
            snap.set_counter("surface.dram.hits_fused", d[1][0]);
            snap.set_counter("surface.dram.hits_other", d[0][0]);
            snap.set_counter("surface.dram.conflicts_fused", d[1][2]);
            snap.set_counter("surface.dram.conflicts_other", d[0][2]);
            let (tf, te) = surf.tlb_counts();
            snap.set_counter("surface.tlb.fills_fused", tf[1]);
            snap.set_counter("surface.tlb.fills_other", tf[0]);
            snap.set_counter("surface.tlb.evictions_fused", te[1]);
            snap.set_counter("surface.tlb.evictions_other", te[0]);
            let tr = surf.transition_counts();
            snap.set_counter("surface.transitions.merge", tr[0]);
            snap.set_counter("surface.transitions.fake_merge", tr[1]);
            snap.set_counter("surface.transitions.unmerge", tr[2]);
        }
        let (hits, misses, invalidations, flushes) = self.machine.tlb_totals();
        snap.set_counter("tlb.hits", hits);
        snap.set_counter("tlb.misses", misses);
        snap.set_counter("tlb.shootdowns", invalidations);
        snap.set_counter("tlb.flushes", flushes);
        let c = self.machine.llc().stats();
        snap.set_counter("llc.hits", c.hits);
        snap.set_counter("llc.misses", c.misses);
        snap.set_counter("llc.evictions", c.evictions);
        snap.set_counter("llc.flushes", c.flushes);
        let b = self.machine.buddy().stats();
        snap.set_counter("buddy.allocs", b.allocs);
        snap.set_counter("buddy.frees", b.frees);
        snap.set_counter("buddy.splits", b.splits);
        snap.set_counter("buddy.merges", b.merges);
        if let Some(k) = self.khugepaged.as_ref() {
            let ks = k.stats();
            snap.set_counter("khugepaged.collapsed", ks.collapsed);
            snap.set_counter("khugepaged.blocked_by_policy", ks.blocked_by_policy);
            snap.set_counter("khugepaged.skipped", ks.skipped);
        }
        snap.set_gauge(
            "mem.allocated_frames",
            self.machine.allocated_frames() as i64,
        );
        snap.set_gauge("engine.pages_saved", self.policy.pages_saved() as i64);
        snap
    }

    /// The side-channel surface as canonical JSON (see
    /// [`Machine::surface_json`]).
    pub fn surface_json(&self) -> String {
        self.machine.surface_json()
    }

    /// The per-run report: engine name, metrics snapshot, and the
    /// cycle-attribution profile accumulated by the tracer.
    pub fn report(&self) -> SystemReport {
        SystemReport {
            engine: self.policy.name().to_string(),
            metrics: self.metrics_snapshot(),
            profile: self.machine.obs().tracer().profile().clone(),
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint, restore, replay
    // ------------------------------------------------------------------

    /// Serializes the whole system (machine, daemon deadlines, driver
    /// stats, khugepaged, engine state) into a sealed, checksummed blob.
    /// The machine's event journal is *not* included; pair
    /// [`Machine::journal`] with this blob to describe "state at T, then
    /// what happened".
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.machine.save(&mut w);
        w.u64(self.next_scan_ns);
        w.u64(self.next_khuge_ns);
        let s = self.stats;
        for v in [
            s.policy_faults,
            s.kernel_faults,
            s.scan_wakeups,
            s.unresolved_faults,
            s.fault_livelocks,
        ] {
            w.u64(v);
        }
        self.governor.save(&mut w);
        match &self.khugepaged {
            Some(k) => {
                w.bool(true);
                k.save(&mut w);
            }
            None => w.bool(false),
        }
        // The engine payload is tagged with the policy name and framed as
        // a blob, so a bundle recorded under one engine fails loudly when
        // replayed into another.
        w.str(self.policy.name());
        let mut pw = Writer::new();
        self.policy.save(&mut pw);
        w.blob(&pw.into_bytes());
        vusion_snapshot::seal(&w.into_bytes())
    }

    /// Restores a snapshot taken by [`Self::snapshot`] into a system built
    /// with the same machine configuration and the same policy kind. Bytes
    /// left over after the payload or after the engine blob are
    /// [`SnapshotError::Corrupt`]: they mean a `save` its `load` does not
    /// match. So is an engine blob naming a frame or a process the
    /// restored machine does not have: the engine reads its ids through
    /// [`Reader::frame`] and [`Reader::pid`], bounded by that machine.
    ///
    /// A refused restore changes nothing. The machine and the driver
    /// fields decode into fresh values, committed only once everything
    /// has decoded; the engine loads last, in place, and a refused engine
    /// blob puts the engine's own image back.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let Self {
            machine,
            policy,
            khugepaged,
            next_scan_ns,
            next_khuge_ns,
            stats,
            governor,
        } = self;
        let payload = vusion_snapshot::unseal(bytes)?;
        let mut r = Reader::new(payload);
        let mut decoded = Machine::new(*machine.config());
        decoded.load(&mut r)?;
        let scan_at = r.u64()?;
        let khuge_at = r.u64()?;
        let driver = SystemStats {
            policy_faults: r.u64()?,
            kernel_faults: r.u64()?,
            scan_wakeups: r.u64()?,
            unresolved_faults: r.u64()?,
            fault_livelocks: r.u64()?,
        };
        let gov = PressureGovernor::load(&mut r)?;
        let daemon = if r.bool()? {
            Some(Khugepaged::load(&mut r)?)
        } else {
            None
        };
        if r.str()? != policy.name() {
            return Err(SnapshotError::Corrupt("engine tag mismatch"));
        }
        let blob = r.blob()?;
        r.finish()?;
        let mut own = Writer::new();
        policy.save(&mut own);
        let mut pr = Reader::new(blob)
            .with_id_bounds(decoded.mem().frame_count() as u64, decoded.process_count());
        if let Err(e) = policy.load(&mut pr).and_then(|()| pr.finish()) {
            let own = own.into_bytes();
            let reloaded = policy.load(&mut Reader::new(&own));
            debug_assert!(reloaded.is_ok(), "an engine reloads its own image");
            return Err(e);
        }
        let old = std::mem::replace(machine, decoded);
        machine.inherit_run_state(old);
        *next_scan_ns = scan_at;
        *next_khuge_ns = khuge_at;
        *stats = driver;
        *governor = gov;
        *khugepaged = daemon;
        Ok(())
    }

    /// Re-executes one journaled event. Journaling is suspended for the
    /// duration so a replay never re-records itself.
    pub fn replay_event(&mut self, ev: &JournalEvent) {
        self.machine.suspend_journal();
        match ev {
            JournalEvent::Spawn { name } => {
                let _ = self.machine.spawn(name);
            }
            JournalEvent::Mmap { pid, vma } => self.machine.mmap(*pid, *vma),
            JournalEvent::Madvise { pid, start, pages } => {
                let _ = self.machine.madvise_mergeable(*pid, *start, *pages);
            }
            JournalEvent::Read { pid, va } => {
                let _ = self.try_read(*pid, *va);
            }
            JournalEvent::Write { pid, va, value } => {
                let _ = self.try_write(*pid, *va, *value);
            }
            JournalEvent::ReadPage { pid, va } => {
                let _ = self.read_page(*pid, *va);
            }
            JournalEvent::WritePage { pid, va, content } => {
                self.write_page(*pid, *va, content);
            }
            JournalEvent::Prefetch { pid, va } => self.prefetch(*pid, *va),
            JournalEvent::Clflush { pid, va } => self.clflush(*pid, *va),
            JournalEvent::ForceScans { n } => self.force_scans(*n),
            JournalEvent::Idle { ns } => self.idle(*ns),
            JournalEvent::Hammer {
                pid,
                va1,
                va2,
                iterations,
            } => {
                let _ = self.machine.hammer(*pid, *va1, *va2, *iterations);
            }
            JournalEvent::ArmFaults => self.machine.arm_faults(),
            JournalEvent::SetPressureGovernor { cfg } => {
                let _ = self.set_pressure_governor(*cfg);
            }
        }
        self.machine.resume_journal();
    }

    /// Replays a journal in order. Starting from the matching snapshot,
    /// this converges to the same memory image and stats as the original
    /// (uncrashed) execution of the recorded call sequence.
    pub fn replay(&mut self, events: &[JournalEvent]) {
        for ev in events {
            self.replay_event(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::policy::NoFusion;
    use vusion_mmu::{Protection, Vma};

    fn system() -> (System<NoFusion>, Pid) {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 64, Protection::rw()));
        (System::new(m, NoFusion), pid)
    }

    #[test]
    fn read_write_roundtrip_through_faults() {
        let (mut s, pid) = system();
        s.write(pid, VirtAddr(0x10010), 7);
        assert_eq!(s.read(pid, VirtAddr(0x10010)), 7);
        assert_eq!(s.stats().kernel_faults, 1, "one demand-zero fault");
    }

    #[test]
    fn page_helpers_roundtrip() {
        let (mut s, pid) = system();
        let mut content = [0u8; PAGE_SIZE as usize];
        for (i, b) in content.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        s.write_page(pid, VirtAddr(0x12000), &content);
        assert_eq!(s.read_page(pid, VirtAddr(0x12000)), content);
    }

    #[test]
    fn idle_advances_clock_and_runs_scans() {
        let (mut s, pid) = system();
        let _ = pid;
        let t0 = s.machine.now_ns();
        s.idle(100_000_000); // 100 ms = 5 scan periods.
        assert!(s.machine.now_ns() >= t0 + 100_000_000);
        assert_eq!(s.stats().scan_wakeups, 5);
    }

    #[test]
    fn scans_triggered_by_foreground_time() {
        let (mut s, pid) = system();
        // Enough faulting writes to push the clock past several periods.
        let mut va = 0x10000u64;
        while s.machine.now_ns() < 50_000_000 {
            s.write(pid, VirtAddr(va), 1);
            va += PAGE_SIZE;
            if va >= 0x10000 + 64 * PAGE_SIZE {
                s.machine.sleep(1_000_000);
                va = 0x10000;
            }
        }
        s.read(pid, VirtAddr(0x10000));
        assert!(
            s.stats().scan_wakeups >= 2,
            "scanner must keep pace with time"
        );
    }

    #[test]
    fn unmapped_access_is_fatal() {
        // The simulated SIGSEGV: a typed error whose display names it.
        let (mut s, pid) = system();
        let va = VirtAddr(0x0dea_dbee_f000);
        let err = s.try_read(pid, va).expect_err("must not resolve");
        assert!(err.to_string().contains("SIGSEGV"), "{err}");
    }

    #[test]
    fn unmapped_access_is_a_typed_error() {
        let (mut s, pid) = system();
        let va = VirtAddr(0x0dea_dbee_f000);
        assert_eq!(s.try_read(pid, va), Err(MmError::UnresolvableFault(va)));
        assert_eq!(s.stats().unresolved_faults, 1);
        // The system survives: mapped memory still works afterwards.
        s.write(pid, VirtAddr(0x10000), 3);
        assert_eq!(s.read(pid, VirtAddr(0x10000)), 3);
    }
}
