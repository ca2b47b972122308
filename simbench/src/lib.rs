//! End-to-end host-speed benchmark of the VUsion simulator.
//!
//! Three workloads drive the simulator through the public API of the
//! `vusion` crates, each stressing different layers:
//!
//! * `idle_fusion`: 16 idle VMs under KSM, WPF and VUsion; the engines'
//!   scan passes do nearly all the work.
//! * `guest_churn`: one VM runs an `mcf`-like access stream after fusion
//!   has settled, under every performance configuration; foreground
//!   accesses (TLB, walk, LLC, DRAM, copy-on-write/access) dominate.
//! * `traced_replay`: record a journaled phase with every observability
//!   hook on, restore a snapshot into a fresh system, replay, and require
//!   byte-identical final state; the snapshot, replay and export path.
//!
//! A run repeats one *round* (set up the systems, then the measured phase)
//! until its time is up. Every round of a run simulates exactly the same
//! inputs, so its simulated statistics must repeat exactly; that is one of
//! the output checks. The measured phase is timed in short laps cut at the
//! same points of the work in every round, and a run reports each lap at
//! its fastest over the rounds (set-up time: the median over rounds).

pub mod model;
pub mod report;
pub mod rounds;
pub mod spans;

mod host;

pub use host::{peak_rss_mib, HostFacts};

/// The seed whose simulated statistics are pinned in [`rounds::pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// The median of `v`: the mean of the two middle values when their count
/// is even, 0 when there are none.
pub fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Idle VMs; scan passes dominate.
    IdleFusion,
    /// Foreground accesses dominate.
    GuestChurn,
    /// Snapshot, journal, replay and exports with every hook on.
    TracedReplay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::IdleFusion,
        Workload::GuestChurn,
        Workload::TracedReplay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IdleFusion => "idle_fusion",
            Workload::GuestChurn => "guest_churn",
            Workload::TracedReplay => "traced_replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}
