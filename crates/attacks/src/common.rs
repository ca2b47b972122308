//! Shared attack scaffolding: attacker/victim setup and timing helpers.

use vusion_core::EngineKind;
use vusion_kernel::{FusionPolicy, MachineConfig, Pid, System};
use vusion_mem::{VirtAddr, PAGE_SIZE};
use vusion_mmu::{Protection, Vma};

/// What an attack concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackVerdict {
    /// Whether the attacker extracted the information / corrupted the
    /// target it was after.
    pub success: bool,
}

/// A standard two-party setup: an attacker VM and a victim VM, each with a
/// mergeable anonymous region, plus an attacker-side utility region that is
/// *never* registered for fusion (eviction sets, TLB-sweep buffers).
pub struct TwinSetup {
    /// The attacker's pid (spawned first — scanned first by KSM unless the
    /// attack wants otherwise).
    pub attacker: Pid,
    /// The victim's pid.
    pub victim: Pid,
    /// Base of each party's mergeable region.
    pub merge_base: VirtAddr,
    /// Pages in the mergeable region.
    pub merge_pages: u64,
    /// Base of the attacker's non-mergeable utility region.
    pub util_base: VirtAddr,
    /// Pages in the utility region.
    pub util_pages: u64,
}

impl TwinSetup {
    /// Creates the two processes and regions on a system built for `kind`.
    ///
    /// `victim_first` controls spawn order (KSM scans lower pids first, so
    /// the first-spawned party's frame becomes the stable page on a
    /// promotion — Flip Feng Shui wants the attacker first, the
    /// page-color attack wants the victim first).
    pub fn new(
        sys: &mut System<Box<dyn FusionPolicy>>,
        merge_pages: u64,
        util_pages: u64,
        victim_first: bool,
    ) -> Self {
        let (attacker, victim) = if victim_first {
            let v = sys.machine.spawn("victim").expect("spawn");
            let a = sys.machine.spawn("attacker").expect("spawn");
            (a, v)
        } else {
            let a = sys.machine.spawn("attacker").expect("spawn");
            let v = sys.machine.spawn("victim").expect("spawn");
            (a, v)
        };
        let merge_base = VirtAddr(0x1000_0000);
        let util_base = VirtAddr(0x8000_0000);
        for pid in [attacker, victim] {
            sys.machine
                .mmap(pid, Vma::anon(merge_base, merge_pages, Protection::rw()));
            sys.machine.madvise_mergeable(pid, merge_base, merge_pages);
        }
        if util_pages > 0 {
            sys.machine
                .mmap(attacker, Vma::anon(util_base, util_pages, Protection::rw()));
        }
        Self {
            attacker,
            victim,
            merge_base,
            merge_pages,
            util_base,
            util_pages,
        }
    }

    /// The `i`-th page of a party's mergeable region.
    pub fn merge_page(&self, i: u64) -> VirtAddr {
        assert!(i < self.merge_pages, "merge page index out of range");
        VirtAddr(self.merge_base.0 + i * PAGE_SIZE)
    }

    /// The `i`-th page of the attacker's utility region.
    pub fn util_page(&self, i: u64) -> VirtAddr {
        assert!(i < self.util_pages, "util page index out of range");
        VirtAddr(self.util_base.0 + i * PAGE_SIZE)
    }
}

/// Builds an attack system for an engine on the standard attack machine.
pub fn attack_system(kind: EngineKind) -> System<Box<dyn FusionPolicy>> {
    attack_system_on(kind, MachineConfig::test_small())
}

/// Builds an attack system on a custom machine config.
pub fn attack_system_on(kind: EngineKind, base: MachineConfig) -> System<Box<dyn FusionPolicy>> {
    kind.build_system(base)
}

/// A recognizable page content derived from a label: what the attacker
/// crafts, and what the victim's "secret" pages hold.
pub fn labeled_page(label: u64) -> [u8; PAGE_SIZE as usize] {
    let mut p = [0u8; PAGE_SIZE as usize];
    let mut state = label.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for chunk in p.chunks_mut(8) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        for (i, b) in chunk.iter_mut().enumerate() {
            *b = (v >> (8 * i)) as u8;
        }
    }
    p
}

/// Runs enough scanner wakeups for fusion to settle over `total_pages`
/// candidate pages (several full rounds, covering KSM's checksum
/// stabilization and VUsion's idle detection).
pub fn settle(sys: &mut System<Box<dyn FusionPolicy>>, total_pages: u64) {
    let per_scan = 100u64; // Engines use N=100 (WPF does full passes anyway).
    let wakeups = (total_pages * 4).div_ceil(per_scan).max(4) as usize;
    sys.force_scans(wakeups);
}

/// Times one write in simulated nanoseconds.
pub fn time_write(
    sys: &mut System<Box<dyn FusionPolicy>>,
    pid: Pid,
    va: VirtAddr,
    value: u8,
) -> u64 {
    let t0 = sys.machine.now_ns();
    sys.write(pid, va, value);
    sys.machine.now_ns() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_pages_are_distinct_and_stable() {
        assert_eq!(labeled_page(1), labeled_page(1));
        assert_ne!(labeled_page(1), labeled_page(2));
    }

    #[test]
    fn twin_setup_layout() {
        let mut sys = attack_system(EngineKind::Ksm);
        let t = TwinSetup::new(&mut sys, 16, 8, false);
        assert_eq!(t.attacker, Pid(0), "attacker spawned first");
        assert_eq!(t.merge_page(1).0, t.merge_base.0 + PAGE_SIZE);
        assert_eq!(t.util_page(0), t.util_base);
        // Mergeable regions registered, utility region not.
        assert_eq!(
            sys.machine
                .process(t.attacker)
                .space
                .mergeable_vmas()
                .count(),
            1
        );
        assert_eq!(
            sys.machine.process(t.victim).space.mergeable_vmas().count(),
            1
        );
    }

    #[test]
    fn twin_setup_victim_first_order() {
        let mut sys = attack_system(EngineKind::Ksm);
        let t = TwinSetup::new(&mut sys, 4, 0, true);
        assert_eq!(t.victim, Pid(0));
        assert_eq!(t.attacker, Pid(1));
    }

    #[test]
    fn timing_helpers_measure_clock() {
        let mut sys = attack_system(EngineKind::NoFusion);
        let t = TwinSetup::new(&mut sys, 4, 0, false);
        let cold = time_write(&mut sys, t.attacker, t.merge_page(0), 1);
        let warm = time_write(&mut sys, t.attacker, t.merge_page(0), 2);
        assert!(cold > warm, "first (faulting) write must be slower");
    }
}
