//! Ablation study: remove one VUsion mechanism at a time and show the
//! corresponding channel reopen.
//!
//! §7.1 motivates three design decisions beyond the headline S⊕F/FM/RA:
//! the PCD bit (stops prefetch), deferred free (equalizes the merged and
//! fake-merged fault paths), and per-round re-randomization of backing
//! frames (stops cross-scan coloring). Each ablated variant here is the
//! full engine minus exactly one of those; the paired probe demonstrates
//! the leak the mechanism exists to close.

use vusion_core::{VUsion, VUsionConfig};
use vusion_kernel::{Machine, MachineConfig, Pid, System};
use vusion_mem::{VirtAddr, PAGE_SIZE};
use vusion_mmu::{Protection, Vma};
use vusion_stats::{ks_two_sample, KsResult};

use crate::common::labeled_page;

/// Which mechanism to remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Full engine (secure reference).
    None,
    /// No Caching-Disabled bit on trapped PTEs.
    NoPcd,
    /// Synchronous frees in the fault handler.
    NoDeferredFree,
    /// No per-round backing-frame re-randomization.
    NoRerandomize,
}

impl Ablation {
    /// All variants, reference first.
    pub fn all() -> [Ablation; 4] {
        [
            Ablation::None,
            Ablation::NoPcd,
            Ablation::NoDeferredFree,
            Ablation::NoRerandomize,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Ablation::None => "full VUsion",
            Ablation::NoPcd => "- PCD bit",
            Ablation::NoDeferredFree => "- deferred free",
            Ablation::NoRerandomize => "- re-randomize",
        }
    }

    fn config(self) -> VUsionConfig {
        let mut cfg = VUsionConfig {
            pool_frames: 256,
            ..Default::default()
        };
        match self {
            Ablation::None => {}
            Ablation::NoPcd => cfg.ablate_pcd = true,
            Ablation::NoDeferredFree => cfg.ablate_deferred_free = true,
            Ablation::NoRerandomize => cfg.ablate_rerandomize = true,
        }
        cfg
    }
}

const BASE: u64 = 0x10000;

fn build(ablation: Ablation) -> (System<VUsion>, Pid, Pid) {
    let mut m = Machine::new(MachineConfig::test_small());
    let a = m.spawn("attacker").expect("spawn");
    let v = m.spawn("victim").expect("spawn");
    for pid in [a, v] {
        m.mmap(pid, Vma::anon(VirtAddr(BASE), 128, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(BASE), 128);
    }
    let policy = VUsion::new(&mut m, ablation.config());
    (System::new(m, policy), a, v)
}

/// Probe 1 — prefetch leak: can the attacker load a trapped page into the
/// cache with `prefetch` (no fault, no unmerge)? Returns `true` if yes.
pub fn prefetch_leaks(ablation: Ablation) -> bool {
    let (mut sys, a, _v) = build(ablation);
    sys.write_page(a, VirtAddr(BASE), &labeled_page(0x11));
    sys.force_scans(16);
    assert!(
        sys.policy.is_managed(&sys.machine, a, VirtAddr(BASE)),
        "page must be under management"
    );
    let pa = sys
        .machine
        .translate_quiet(a, VirtAddr(BASE))
        .expect("mapped");
    sys.machine.llc_mut().flush_frame(pa.frame());
    sys.prefetch(a, VirtAddr(BASE));
    sys.machine.llc().contains(pa)
}

/// Probe 2 — fault-path timing: KS test between copy-on-access times of
/// merged pages and fake-merged pages.
pub fn coa_timing_asymmetry(ablation: Ablation) -> KsResult {
    let (mut sys, a, v) = build(ablation);
    const N: u64 = 60;
    for i in 0..N {
        let va = VirtAddr(BASE + i * PAGE_SIZE);
        sys.write_page(a, va, &labeled_page(0x700 + i));
        if i % 2 == 0 {
            sys.write_page(v, va, &labeled_page(0x700 + i)); // Merged.
        }
    }
    sys.force_scans(24);
    let mut merged = Vec::new();
    let mut fake = Vec::new();
    for i in 0..N {
        let va = VirtAddr(BASE + i * PAGE_SIZE);
        if !sys.policy.is_managed(&sys.machine, a, va) {
            continue;
        }
        let t0 = sys.machine.now_ns();
        sys.read(a, va);
        let dt = (sys.machine.now_ns() - t0) as f64;
        if i % 2 == 0 {
            merged.push(dt);
        } else {
            fake.push(dt);
        }
    }
    // NOTE: reads of *merged* pages leave the shared frame alive (dummy /
    // no free), reads of fake-merged pages kill their private frame.
    ks_two_sample(&merged, &fake)
}

/// Probe 3 — cross-scan frame stability: does a fake-merged page keep its
/// backing frame across full scan rounds (letting a page-coloring attacker
/// correlate)? Returns `true` if the frame was stable (leaky).
pub fn backing_frame_stable_across_rounds(ablation: Ablation) -> bool {
    let (mut sys, a, _v) = build(ablation);
    sys.write_page(a, VirtAddr(BASE), &labeled_page(0x33));
    sys.force_scans(16);
    assert!(sys.policy.is_managed(&sys.machine, a, VirtAddr(BASE)));
    let f1 = sys
        .machine
        .translate_quiet(a, VirtAddr(BASE))
        .expect("mapped")
        .frame();
    let rounds = sys.policy.stats().full_rounds;
    while sys.policy.stats().full_rounds < rounds + 3 {
        sys.force_scans(8);
    }
    let f2 = sys
        .machine
        .translate_quiet(a, VirtAddr(BASE))
        .expect("mapped")
        .frame();
    f1 == f2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_engine_blocks_prefetch() {
        assert!(!prefetch_leaks(Ablation::None));
    }

    #[test]
    fn removing_pcd_reopens_prefetch_channel() {
        assert!(
            prefetch_leaks(Ablation::NoPcd),
            "without PCD, prefetch loads trapped pages"
        );
    }

    #[test]
    fn full_engine_has_symmetric_fault_timing() {
        let ks = coa_timing_asymmetry(Ablation::None);
        assert!(ks.same_distribution(0.05), "p = {}", ks.p_value);
    }

    #[test]
    fn removing_deferred_free_reopens_timing_channel() {
        let ks = coa_timing_asymmetry(Ablation::NoDeferredFree);
        assert!(
            !ks.same_distribution(0.05),
            "synchronous frees must separate the distributions (p = {})",
            ks.p_value
        );
    }

    #[test]
    fn full_engine_rerandomizes_backing_frames() {
        assert!(!backing_frame_stable_across_rounds(Ablation::None));
    }

    #[test]
    fn removing_rerandomization_stabilizes_frames() {
        assert!(
            backing_frame_stable_across_rounds(Ablation::NoRerandomize),
            "without decision (iii) the backing frame persists across rounds"
        );
    }

    #[test]
    fn ablations_do_not_break_correctness() {
        // Even insecure variants must preserve memory semantics.
        for ab in Ablation::all() {
            let (mut sys, a, v) = build(ab);
            sys.write_page(a, VirtAddr(BASE), &labeled_page(0x99));
            sys.write_page(v, VirtAddr(BASE), &labeled_page(0x99));
            sys.force_scans(20);
            assert_eq!(
                sys.read_page(a, VirtAddr(BASE)),
                labeled_page(0x99),
                "{ab:?}"
            );
            assert_eq!(
                sys.read_page(v, VirtAddr(BASE)),
                labeled_page(0x99),
                "{ab:?}"
            );
        }
    }
}
