//! The deterministic ring-buffer event tracer.
//!
//! Spans nest (a CoA copy inside a fault, a merge inside a scan pass) and
//! attribute simulated cycles two ways:
//!
//! * **self** — cycles charged while the span was the innermost open one;
//! * **total** — self plus the totals of every nested child.
//!
//! Cycles reach the tracer from two sources: the machine's `charge` (the
//! fault-side cost model, jitter included) and explicit scanner-side cost
//! reports (`scan pass` work runs on its own core and never advances the
//! workload clock, so engines report its modeled cost to the tracer
//! directly). Both are observability-only: with tracing disabled neither
//! touches an RNG nor the clock, so enabling tracing never changes
//! simulated behavior.

use vusion_snapshot::{fnv1a64, Writer};

use crate::json::{fmt_us, quote};
use crate::profile::Profile;

/// Phases of work a span can describe. Ordering is the report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One fault dispatch through policy and kernel handlers.
    FaultHandling,
    /// One scanner wakeup (KSM chunk, WPF full pass, VUsion chunk).
    ScanPass,
    /// A real merge (two frames become one).
    Merge,
    /// A fake merge (VUsion: page moved to a random frame, trapped).
    FakeMerge,
    /// An unmerge performed by an engine (fault- or scan-side).
    Unmerge,
    /// A copy-on-write copy in the kernel default handler.
    CowCopy,
    /// A copy-on-access copy (VUsion's unified share⊕fetch path).
    CoaCopy,
    /// A per-round rerandomization pass over fused frames.
    Rerandomize,
    /// Demand paging (zero fill, huge fill, page-cache fill).
    DemandPaging,
    /// Breaking a transparent huge page into base pages.
    ThpBreak,
    /// A khugepaged collapse scan.
    ThpCollapse,
    /// Draining the deferred-free queue under memory pressure.
    DeferredDrain,
    /// One reclaim-ladder rung executed by the pressure governor
    /// (deferred-queue drain or cache shrink).
    PressureRelief,
}

impl SpanKind {
    /// Every kind, in report order.
    pub const ALL: [SpanKind; 13] = [
        SpanKind::FaultHandling,
        SpanKind::ScanPass,
        SpanKind::Merge,
        SpanKind::FakeMerge,
        SpanKind::Unmerge,
        SpanKind::CowCopy,
        SpanKind::CoaCopy,
        SpanKind::Rerandomize,
        SpanKind::DemandPaging,
        SpanKind::ThpBreak,
        SpanKind::ThpCollapse,
        SpanKind::DeferredDrain,
        SpanKind::PressureRelief,
    ];

    /// Stable display name (also the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FaultHandling => "fault",
            SpanKind::ScanPass => "scan_pass",
            SpanKind::Merge => "merge",
            SpanKind::FakeMerge => "fake_merge",
            SpanKind::Unmerge => "unmerge",
            SpanKind::CowCopy => "cow_copy",
            SpanKind::CoaCopy => "coa_copy",
            SpanKind::Rerandomize => "rerandomize",
            SpanKind::DemandPaging => "demand_paging",
            SpanKind::ThpBreak => "thp_break",
            SpanKind::ThpCollapse => "thp_collapse",
            SpanKind::DeferredDrain => "deferred_drain",
            SpanKind::PressureRelief => "pressure_relief",
        }
    }

    fn code(self) -> u8 {
        match self {
            SpanKind::FaultHandling => 0,
            SpanKind::ScanPass => 1,
            SpanKind::Merge => 2,
            SpanKind::FakeMerge => 3,
            SpanKind::Unmerge => 4,
            SpanKind::CowCopy => 5,
            SpanKind::CoaCopy => 6,
            SpanKind::Rerandomize => 7,
            SpanKind::DemandPaging => 8,
            SpanKind::ThpBreak => 9,
            SpanKind::ThpCollapse => 10,
            SpanKind::DeferredDrain => 11,
            SpanKind::PressureRelief => 12,
        }
    }
}

/// Point events without duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstantKind {
    /// One TLB entry shot down (`invlpg` after a PTE rewrite).
    TlbShootdown,
    /// A full TLB flush (CR3 reload, THP break).
    TlbFlush,
    /// An LLC line flushed (`clflush`).
    LlcFlush,
    /// A scanner skip-and-retry under resource failure.
    ScanRetry,
    /// An allocation failure absorbed gracefully.
    Oom,
    /// A Rowhammer bit flip applied to memory.
    BitFlip,
    /// A crash-injection point fired.
    CrashPoint,
    /// The pressure governor escalated a band (`arg` = new band code).
    PressureEscalation,
    /// The pressure governor de-escalated a band (`arg` = new band code).
    PressureDeEscalation,
}

impl InstantKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            InstantKind::TlbShootdown => "tlb_shootdown",
            InstantKind::TlbFlush => "tlb_flush",
            InstantKind::LlcFlush => "llc_flush",
            InstantKind::ScanRetry => "scan_retry",
            InstantKind::Oom => "oom",
            InstantKind::BitFlip => "bit_flip",
            InstantKind::CrashPoint => "crash_point",
            InstantKind::PressureEscalation => "pressure_escalation",
            InstantKind::PressureDeEscalation => "pressure_de_escalation",
        }
    }

    fn code(self) -> u8 {
        match self {
            InstantKind::TlbShootdown => 0,
            InstantKind::TlbFlush => 1,
            InstantKind::LlcFlush => 2,
            InstantKind::ScanRetry => 3,
            InstantKind::Oom => 4,
            InstantKind::BitFlip => 5,
            InstantKind::CrashPoint => 6,
            InstantKind::PressureEscalation => 7,
            InstantKind::PressureDeEscalation => 8,
        }
    }
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened.
    Begin(SpanKind),
    /// A span closed; the event's `arg` carries its total cycles.
    End(SpanKind),
    /// A point event; `arg` is kind-specific (e.g. the crash site).
    Instant(InstantKind),
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time, nanoseconds.
    pub t_ns: u64,
    /// Global order (breaks ties between events at the same timestamp —
    /// scanner work does not advance the clock).
    pub seq: u64,
    /// Begin / end / instant.
    pub phase: Phase,
    /// Category: the engine or subsystem that emitted it
    /// ("ksm", "wpf", "vusion", "kernel", "mmu", "chaos", ...).
    pub cat: &'static str,
    /// Free argument (pages scanned, total cycles, crash site, ...).
    pub arg: u64,
}

struct OpenSpan {
    kind: SpanKind,
    cat: &'static str,
    begin_ns: u64,
    cycles_self: u64,
    cycles_children: u64,
}

/// The ring-buffer tracer. See the module docs for the cycle model.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    ring: Vec<TraceEvent>,
    head: usize,
    seq: u64,
    dropped: u64,
    stack: Vec<OpenSpan>,
    profile: Profile,
}

impl std::fmt::Debug for OpenSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpenSpan({}/{})", self.cat, self.kind.name())
    }
}

/// Default ring capacity: enough for the tail of any chaos run without
/// unbounded growth (events are 48 bytes; 64 Ki events ≈ 3 MiB).
pub const DEFAULT_CAPACITY: usize = 65_536;

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether recording is on.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables recording with a ring of `capacity` events (allocated here,
    /// once — the hot path never allocates).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace ring capacity must be positive");
        self.enabled = true;
        if self.capacity != capacity {
            self.capacity = capacity;
            self.ring = Vec::with_capacity(capacity);
            self.head = 0;
        }
    }

    /// Disables recording; buffered events and the profile remain readable.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Forgets everything recorded: events, open spans, profile, dropped
    /// count, and the sequence counter (so a cleared tracer restarts
    /// byte-identically).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.seq = 0;
        self.dropped = 0;
        self.stack.clear();
        self.profile = Profile::default();
    }

    /// Events overwritten after the ring filled (the trace keeps the tail).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, phase: Phase, cat: &'static str, t_ns: u64, arg: u64) {
        let ev = TraceEvent {
            t_ns,
            seq: self.seq,
            phase,
            cat,
            arg,
        };
        self.seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Opens a span. No-op when disabled.
    pub fn begin(&mut self, cat: &'static str, kind: SpanKind, now_ns: u64) {
        if !self.enabled {
            return;
        }
        self.push(Phase::Begin(kind), cat, now_ns, 0);
        self.stack.push(OpenSpan {
            kind,
            cat,
            begin_ns: now_ns,
            cycles_self: 0,
            cycles_children: 0,
        });
    }

    /// Closes the innermost span, which must be of `kind` (enforced in
    /// debug builds; release builds close the innermost span regardless,
    /// so an engine bug degrades the trace rather than the run).
    pub fn end(&mut self, kind: SpanKind, now_ns: u64) {
        if !self.enabled {
            return;
        }
        let Some(span) = self.stack.pop() else {
            debug_assert!(false, "end({}) with no open span", kind.name());
            return;
        };
        debug_assert_eq!(
            span.kind,
            kind,
            "span nesting mismatch: ended {} inside {}",
            kind.name(),
            span.kind.name()
        );
        let total = span.cycles_self + span.cycles_children;
        if let Some(parent) = self.stack.last_mut() {
            parent.cycles_children += total;
        }
        self.profile.record(
            span.cat,
            span.kind,
            span.cycles_self,
            total,
            now_ns.saturating_sub(span.begin_ns),
        );
        self.push(Phase::End(span.kind), span.cat, now_ns, total);
    }

    /// Records a point event. No-op when disabled.
    pub fn instant(&mut self, cat: &'static str, kind: InstantKind, now_ns: u64, arg: u64) {
        if !self.enabled {
            return;
        }
        self.push(Phase::Instant(kind), cat, now_ns, arg);
    }

    /// Attributes `ns` simulated cycles to the innermost open span.
    /// No-op when disabled or outside any span.
    #[inline]
    pub fn on_cycles(&mut self, ns: u64) {
        if !self.enabled {
            return;
        }
        if let Some(span) = self.stack.last_mut() {
            span.cycles_self += ns;
        }
    }

    /// Buffered events in chronological order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// The rolled-up per-category, per-phase cycle attribution.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Packs the buffered events into a canonical byte string (little
    /// endian, chronological). Two runs with the same seed and workload
    /// produce identical bytes — the determinism tests compare these.
    pub fn export_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let events = self.events();
        w.usize(events.len());
        for ev in events {
            w.u64(ev.t_ns);
            w.u64(ev.seq);
            let (tag, code) = match ev.phase {
                Phase::Begin(k) => (0u8, k.code()),
                Phase::End(k) => (1u8, k.code()),
                Phase::Instant(k) => (2u8, k.code()),
            };
            w.u8(tag);
            w.u8(code);
            w.str(ev.cat);
            w.u64(ev.arg);
        }
        w.into_bytes()
    }

    /// FNV-1a digest of [`Self::export_bytes`] — a cheap equality token
    /// for asserting trace determinism.
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.export_bytes())
    }

    /// Renders the buffer as Chrome `trace_event` JSON (load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). `ts` is in
    /// microseconds with nanosecond precision; all events share pid/tid 1
    /// (the simulation is single-threaded — concurrency is simulated, not
    /// real).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for ev in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            let (ph, name, extra) = match ev.phase {
                Phase::Begin(k) => ("B", k.name(), String::new()),
                Phase::End(k) => (
                    "E",
                    k.name(),
                    format!(",\"args\":{{\"cycles\":{}}}", ev.arg),
                ),
                Phase::Instant(k) => (
                    "i",
                    k.name(),
                    format!(",\"s\":\"t\",\"args\":{{\"arg\":{}}}", ev.arg),
                ),
            };
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":1{}}}",
                quote(name),
                quote(ev.cat),
                ph,
                fmt_us(ev.t_ns),
                extra
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new();
        t.begin("x", SpanKind::Merge, 1);
        t.on_cycles(100);
        t.end(SpanKind::Merge, 2);
        t.instant("x", InstantKind::Oom, 3, 0);
        assert!(t.events().is_empty());
        assert_eq!(t.digest(), {
            let t2 = Tracer::new();
            t2.digest()
        });
    }

    #[test]
    fn self_and_total_cycles_attribute_through_nesting() {
        let mut t = Tracer::new();
        t.enable(64);
        t.begin("eng", SpanKind::FaultHandling, 0);
        t.on_cycles(100);
        t.begin("eng", SpanKind::CoaCopy, 10);
        t.on_cycles(900);
        t.end(SpanKind::CoaCopy, 50);
        t.on_cycles(25);
        t.end(SpanKind::FaultHandling, 60);
        let p = t.profile();
        let fault = p.get("eng", SpanKind::FaultHandling).expect("fault stat");
        assert_eq!(fault.cycles_self, 125);
        assert_eq!(fault.cycles_total, 1025);
        assert_eq!(fault.sim_ns, 60);
        let copy = p.get("eng", SpanKind::CoaCopy).expect("copy stat");
        assert_eq!(copy.cycles_self, 900);
        assert_eq!(copy.cycles_total, 900);
        // The end event carries the span's total cycles.
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].arg, 1025);
    }

    #[test]
    fn ring_keeps_the_tail() {
        let mut t = Tracer::new();
        t.enable(4);
        for i in 0..10 {
            t.instant("x", InstantKind::Oom, i, i);
        }
        let ev = t.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].t_ns, 6, "oldest surviving event");
        assert_eq!(ev[3].t_ns, 9, "newest event");
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn identical_sequences_digest_identically() {
        let run = || {
            let mut t = Tracer::new();
            t.enable(16);
            t.begin("a", SpanKind::ScanPass, 5);
            t.instant("a", InstantKind::ScanRetry, 5, 1);
            t.end(SpanKind::ScanPass, 5);
            t.digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_resets_sequence_for_byte_identity() {
        let mut t = Tracer::new();
        t.enable(16);
        t.instant("a", InstantKind::Oom, 1, 0);
        let first = t.export_bytes();
        t.clear();
        t.instant("a", InstantKind::Oom, 1, 0);
        assert_eq!(first, t.export_bytes());
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = Tracer::new();
        t.enable(16);
        t.begin("ksm", SpanKind::Merge, 1_500);
        t.end(SpanKind::Merge, 2_500);
        let json = t.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"args\":{\"cycles\":0}"), "{json}");
    }
}
