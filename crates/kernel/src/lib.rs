//! The simulated machine: clock, processes, page-fault handling, daemons.
//!
//! This crate stands in for the parts of the Linux kernel that the VUsion
//! patch lives inside: the page-fault path, demand paging, the page cache,
//! `khugepaged`, and the timing-visible interaction of all of those with
//! the memory hierarchy (TLB → page walk → LLC → DRAM row buffer).
//!
//! Design notes:
//!
//! * **Time is simulated.** A [`SimClock`] advances by amounts drawn from a
//!   [`CostModel`] with seeded jitter. Attackers measure the clock exactly
//!   the way real attackers use `rdtsc`; side channels *emerge* from cost
//!   differences between code paths rather than being scripted.
//! * **Fusion engines are policies.** The [`FusionPolicy`] trait is the
//!   boundary between this substrate and the three engines in
//!   `vusion-core` (KSM, WPF, VUsion). The machine raises page faults; the
//!   policy resolves faults on pages it owns and runs scan passes; the
//!   [`System`] driver glues the two together and paces background scans
//!   against simulated time.
//! * **Scanner time is off-thread.** Like the real `ksmd`, scan work runs on
//!   its own core: it does not advance the workload-visible clock. Its cost
//!   surfaces as the extra page faults it induces — which is precisely the
//!   overhead the paper measures (§9.2).

pub mod clock;
pub mod journal;
pub mod khugepaged;
pub mod machine;
pub mod policy;
pub mod pressure;
pub mod process;
pub mod system;

pub use clock::{CostModel, SimClock};
pub use journal::JournalEvent;
pub use khugepaged::{Khugepaged, KhugepagedStats};
pub use machine::{
    AccessKind, FaultReason, Machine, MachineConfig, MachineStats, PageFault, Pid, ScanCounts,
};
pub use policy::{FusionPolicy, NoFusion, ScanGrant};
pub use pressure::{
    PressureBand, PressureConfig, PressureDecision, PressureGovernor, PressureStats,
};
pub use process::Process;
pub use system::{System, SystemReport, SystemStats};

// Observability vocabulary, re-exported so engines and tests can name
// span/instant kinds without a direct `vusion-obs` dependency.
pub use vusion_obs::{
    bucket_floor_ns, latency_bucket, DramOutcome, FaultKind, InstantKind, MetricsSnapshot, Obs,
    PageClass, Profile, SideChannelSurface, SpanKind, SurfaceExtras, SurfaceTransition, Tracer,
    LATENCY_BUCKETS,
};
