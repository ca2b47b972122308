//! Observability: deterministic tracing, metrics, and cycle attribution.
//!
//! The paper's whole evaluation (§9, Tables 2–6) is an attribution
//! exercise — *where* did the share/unshare cost go? This crate provides
//! the three layers that answer it for the simulated machine:
//!
//! * [`Tracer`] — a ring-buffer event tracer with nestable spans
//!   (fault handling, scan passes, merges, unmerges, CoW/CoA copies,
//!   rerandomization) and instant events (TLB shootdowns, LLC flushes,
//!   OOMs). Events are timestamped by the **simulated cycle clock**,
//!   never wall clock, so a fixed seed yields a byte-identical trace.
//!   Export as Chrome `trace_event` JSON (`chrome://tracing`, Perfetto).
//! * [`MetricsRegistry`] / [`MetricsSnapshot`] — latency histograms
//!   (built on `vusion-stats` percentiles) recorded live, frozen into a
//!   snapshot of named counters, gauges and histograms that renders to
//!   JSON and diffs between two points in a run.
//! * [`Profile`] — spans rolled up into a per-engine, per-phase
//!   cycle-attribution report (the Table 5 breakdown).
//! * [`Coverage`] — sorted hit counters for test-campaign coverage
//!   points (crash sites fired, span kinds exercised, fault kinds
//!   injected), merged deterministically and rendered as canonical JSON.
//!
//! ## Zero cost when disabled
//!
//! All recording funnels through [`Obs`], whose `enabled` flag is checked
//! before anything else happens. When disabled (the default), every hook
//! is a single predictable branch: no allocation, no clock reads, no map
//! lookups. Enabling allocates the ring buffer once, up front; the hot
//! path then writes into pre-allocated storage (the ring overwrites its
//! oldest entry when full, so the buffer always holds the trace *tail*).
//!
//! ## Determinism
//!
//! Timestamps come from the simulated clock, ordering from a per-tracer
//! sequence number, and every serialized form (event bytes, Chrome JSON,
//! metrics JSON) iterates sorted containers — two runs with the same seed
//! and workload produce byte-identical artifacts, which tests assert.

pub mod coverage;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod surface;
pub mod trace;

pub use coverage::Coverage;
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use profile::{PhaseStat, Profile};
pub use surface::{
    bucket_floor_ns, latency_bucket, DramOutcome, FaultKind, PageClass, SideChannelSurface,
    SurfaceExtras, SurfaceTransition, LATENCY_BUCKETS,
};
pub use trace::{InstantKind, Phase, SpanKind, TraceEvent, Tracer, DEFAULT_CAPACITY};

/// The observability hub a machine owns: one tracer, one metrics
/// registry, and one side-channel surface recorder. The tracer and
/// metrics share one enable flag; the surface has its own (a traced run
/// is not automatically a surfaced run — artifacts stay unchanged unless
/// explicitly asked for).
#[derive(Debug, Default)]
pub struct Obs {
    tracer: Tracer,
    metrics: MetricsRegistry,
    surface: SideChannelSurface,
}

impl Obs {
    /// A disabled hub (the default): every hook is a single branch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether recording is on. Inlined so disabled-path call sites reduce
    /// to one load + branch.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Turns recording on, pre-allocating a ring buffer of `capacity`
    /// events. Idempotent; re-enabling with a different capacity resizes
    /// and clears.
    pub fn enable(&mut self, capacity: usize) {
        self.tracer.enable(capacity);
    }

    /// Turns recording off. Recorded events, profile and metrics are kept
    /// (readable until [`Self::clear`]).
    pub fn disable(&mut self) {
        self.tracer.disable();
    }

    /// Drops all recorded events, profile stats, metrics and surface
    /// counters and resets the sequence counter — the trace restarts from
    /// a clean slate (used right after taking a snapshot, so the
    /// artifacts describe exactly the delta since it).
    pub fn clear(&mut self) {
        self.tracer.clear();
        self.metrics.clear();
        self.surface.clear();
    }

    /// Whether the side-channel surface recorder is on. Inlined: the
    /// disabled path is one load + branch.
    #[inline(always)]
    pub fn surface_enabled(&self) -> bool {
        self.surface.enabled()
    }

    /// Turns the side-channel surface recorder on, from a clean slate.
    pub fn enable_surface(&mut self) {
        self.surface.enable();
    }

    /// The surface recorder (read-only).
    pub fn surface(&self) -> &SideChannelSurface {
        &self.surface
    }

    /// The surface recorder, mutably.
    pub fn surface_mut(&mut self) -> &mut SideChannelSurface {
        &mut self.surface
    }

    /// The tracer (read-only).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The tracer, mutably.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The metrics registry (read-only).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_clear_resets() {
        let mut obs = Obs::new();
        assert!(!obs.enabled());
        obs.enable(16);
        assert!(obs.enabled());
        obs.tracer_mut().begin("t", SpanKind::Merge, 10);
        obs.tracer_mut().end(SpanKind::Merge, 20);
        obs.observe_fault_latency(5.0);
        obs.clear();
        assert!(obs.tracer().events().is_empty());
        assert!(obs.metrics().snapshot().histograms.is_empty());
    }
}
