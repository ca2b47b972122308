//! The fusion-policy interface between the machine and the engines.
//!
//! The three engines of `vusion-core` (KSM, WPF, VUsion) implement this
//! trait. The machine raises page faults; faults on pages a policy owns
//! (write-protected merged pages, reserved-bit-trapped pages) are resolved
//! by the policy, everything else falls through to the kernel's default
//! demand-paging/CoW handler.

use vusion_mem::VirtAddr;

use crate::machine::{Machine, PageFault, Pid};

/// Outcome counters of one scanner wakeup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Pages examined.
    pub pages_scanned: u64,
    /// Pages merged with an existing copy (real merges).
    pub pages_merged: u64,
    /// Pages fake-merged (VUsion only).
    pub pages_fake_merged: u64,
    /// Pages unmerged (by the scanner, not by faults).
    pub pages_unmerged: u64,
    /// Pages skipped because they were in the working set.
    pub pages_skipped_active: u64,
    /// Pages skipped because their frame's write generation (and mapping)
    /// was unchanged since the last visit — the dirty-driven pass list.
    pub pages_skipped_clean: u64,
    /// Huge pages broken up to consider their contents for fusion.
    pub huge_pages_broken: u64,
    /// Scan-budget units this wakeup consumed (one per page visit). When
    /// the pressure governor grants a budget, `granted - budget_used` is
    /// the share a suspended cursor carries to the next wakeup.
    pub budget_used: u64,
}

impl ScanReport {
    /// Accumulates another report.
    pub fn absorb(&mut self, other: &ScanReport) {
        self.pages_scanned += other.pages_scanned;
        self.pages_merged += other.pages_merged;
        self.pages_fake_merged += other.pages_fake_merged;
        self.pages_unmerged += other.pages_unmerged;
        self.pages_skipped_active += other.pages_skipped_active;
        self.pages_skipped_clean += other.pages_skipped_clean;
        self.huge_pages_broken += other.huge_pages_broken;
        self.budget_used += other.budget_used;
    }
}

/// The pressure governor's decision for one scanner wakeup, handed to
/// [`FusionPolicy::scan`]. The governor owns it and re-derives it before
/// every wake, so engines never store it. `Default` is an ungoverned
/// wake: the engine's own quota, with nothing deferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanGrant {
    /// Page-visit cap for this wake (`None`: the engine's own quota).
    /// Engines report consumption via [`ScanReport::budget_used`] and
    /// park their cursor mid-pass when the budget runs out.
    pub budget: Option<u64>,
    /// Reclaim-ladder rung 3, set while the band is Critical: defer
    /// optional frame-allocating scan work (VUsion's whole merge
    /// decision, KSM's THP breaks, WPF's new tree frames). Fault
    /// handling is never deferred.
    pub defer_alloc: bool,
}

/// A page-fusion engine, driven by the [`crate::System`]. Its complete
/// scan/merge state is checkpointed through the `Snapshot` supertrait:
/// [`crate::System::snapshot`] frames it as a blob tagged with
/// [`Self::name`], so a bundle recorded under one engine fails loudly
/// when restored into another. Stateless policies save nothing.
/// Memory pressure reaches an engine only as the [`ScanGrant`] argument
/// of [`Self::scan`] and through the two relief hooks below; the
/// governor's band is the one copy of that state.
pub trait FusionPolicy: vusion_snapshot::Snapshot {
    /// Engine name for reports ("ksm", "wpf", "vusion", "none").
    fn name(&self) -> &'static str;

    /// One scanner wakeup (KSM: scan N pages; WPF: possibly a full pass)
    /// under `grant`, the pressure governor's decision for this wake.
    /// Runs on its own core: must not charge the workload clock.
    fn scan(&mut self, m: &mut Machine, grant: ScanGrant) -> ScanReport;

    /// Attempts to resolve a fault on a page this policy owns. Returns
    /// `false` if the page is not under fusion management. Runs on the
    /// faulting thread: must charge its work via [`Machine::charge`].
    fn handle_fault(&mut self, m: &mut Machine, fault: &PageFault) -> bool;

    /// `khugepaged` asks to collapse the 2 MiB range at `huge_base`. The
    /// policy must release any of its pages in the range (VUsion
    /// fake-unmerges them, §8.2) or veto the collapse (KSM pages block it,
    /// as in Linux). Returns whether the collapse may proceed.
    fn prepare_collapse(&mut self, m: &mut Machine, pid: Pid, huge_base: VirtAddr) -> bool {
        let _ = (m, pid, huge_base);
        true
    }

    /// Frames currently saved by fusion (for the memory-consumption plots).
    fn pages_saved(&self) -> u64 {
        0
    }

    /// Scanner wakeup period. Default matches KSM's `T = 20 ms`.
    fn scan_period_ns(&self) -> u64 {
        20_000_000
    }

    /// Reclaim-ladder rung 1: release everything parked in deferred-free
    /// queues back to the allocator now. Returns the number of frames (or
    /// queue entries) released.
    fn pressure_drain(&mut self, m: &mut Machine) -> u64 {
        let _ = m;
        0
    }

    /// Reclaim-ladder rung 2: drop transient caches (candidate lists,
    /// checksum memos, unstable trees, suspended pass state). Correctness
    /// must not depend on anything shed here. Returns entries dropped.
    fn pressure_shrink(&mut self, m: &mut Machine) -> u64 {
        let _ = m;
        0
    }
}

/// The "No dedup" baseline: never merges, never handles faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFusion;

/// Stateless: the snapshot is empty.
impl vusion_snapshot::Snapshot for NoFusion {
    fn save(&self, _w: &mut vusion_snapshot::Writer) {}

    fn load(
        &mut self,
        _r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        Ok(())
    }
}

impl FusionPolicy for NoFusion {
    fn name(&self) -> &'static str {
        "none"
    }

    fn scan(&mut self, _m: &mut Machine, _grant: ScanGrant) -> ScanReport {
        ScanReport::default()
    }

    fn handle_fault(&mut self, _m: &mut Machine, _fault: &PageFault) -> bool {
        false
    }
}

impl<P: FusionPolicy + ?Sized> FusionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn scan(&mut self, m: &mut Machine, grant: ScanGrant) -> ScanReport {
        (**self).scan(m, grant)
    }

    fn handle_fault(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        (**self).handle_fault(m, fault)
    }

    fn prepare_collapse(&mut self, m: &mut Machine, pid: Pid, huge_base: VirtAddr) -> bool {
        (**self).prepare_collapse(m, pid, huge_base)
    }

    fn pages_saved(&self) -> u64 {
        (**self).pages_saved()
    }

    fn scan_period_ns(&self) -> u64 {
        (**self).scan_period_ns()
    }

    fn pressure_drain(&mut self, m: &mut Machine) -> u64 {
        (**self).pressure_drain(m)
    }

    fn pressure_shrink(&mut self, m: &mut Machine) -> u64 {
        (**self).pressure_shrink(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn no_fusion_does_nothing() {
        let mut m = Machine::new(MachineConfig::test_small());
        let mut p = NoFusion;
        assert_eq!(p.scan(&mut m, ScanGrant::default()), ScanReport::default());
        assert_eq!(p.pages_saved(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn scan_report_absorb_sums() {
        let mut a = ScanReport {
            pages_scanned: 5,
            pages_merged: 2,
            ..Default::default()
        };
        let b = ScanReport {
            pages_scanned: 3,
            pages_unmerged: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.pages_scanned, 8);
        assert_eq!(a.pages_merged, 2);
        assert_eq!(a.pages_unmerged, 1);
    }

    #[test]
    fn boxed_policy_delegates() {
        let mut m = Machine::new(MachineConfig::test_small());
        let mut p: Box<dyn FusionPolicy> = Box::new(NoFusion);
        assert_eq!(p.name(), "none");
        assert_eq!(p.scan(&mut m, ScanGrant::default()).pages_scanned, 0);
        assert_eq!(p.scan_period_ns(), 20_000_000);
    }
}
