//! The fusion-policy interface between the machine and the engines.
//!
//! The three engines of `vusion-core` (KSM, WPF, VUsion) implement this
//! trait. The machine raises page faults; faults on pages a policy owns
//! (write-protected merged pages, reserved-bit-trapped pages) are resolved
//! by the policy, everything else falls through to the kernel's default
//! demand-paging/CoW handler.

use vusion_mem::VirtAddr;

use crate::machine::{Machine, PageFault, Pid};

/// The pressure governor's decision for one scanner wakeup, handed to
/// [`FusionPolicy::scan`]. The governor owns it and re-derives it before
/// every wake, so engines never store it. `Default` is an ungoverned
/// wake: the engine's own quota, with nothing deferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanGrant {
    /// Page-visit cap for this wake (`None`: the engine's own quota).
    /// Engines return the pages they visited from [`FusionPolicy::scan`]
    /// and park their cursor mid-pass when the budget runs out.
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
    /// Returns the pages it visited, the budget it consumed. What it did
    /// to them it counts on the machine, through
    /// [`Machine::scan_counts_mut`]. Runs on its own core: must not charge
    /// the workload clock.
    fn scan(&mut self, m: &mut Machine, grant: ScanGrant) -> u64;

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

    fn scan(&mut self, _m: &mut Machine, _grant: ScanGrant) -> u64 {
        0
    }

    fn handle_fault(&mut self, _m: &mut Machine, _fault: &PageFault) -> bool {
        false
    }
}

impl<P: FusionPolicy + ?Sized> FusionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn scan(&mut self, m: &mut Machine, grant: ScanGrant) -> u64 {
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
        assert_eq!(p.scan(&mut m, ScanGrant::default()), 0);
        assert_eq!(p.pages_saved(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn boxed_policy_delegates() {
        let mut m = Machine::new(MachineConfig::test_small());
        let mut p: Box<dyn FusionPolicy> = Box::new(NoFusion);
        assert_eq!(p.name(), "none");
        assert_eq!(p.scan(&mut m, ScanGrant::default()), 0);
        assert_eq!(p.scan_period_ns(), 20_000_000);
    }
}
