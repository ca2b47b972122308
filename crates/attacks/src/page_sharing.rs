//! The new page-sharing attack of §5.1: a 1-bit FLUSH+RELOAD.
//!
//! If the attacker's page was merged with the victim's, both PTEs point at
//! the *same physical line*. The attacker FLUSHes its copy, lets the victim
//! run (the victim touches its own secret page), then RELOADs and times: a
//! fast reload means the victim's access refilled the shared line — the
//! pages are fused. Only reads are involved.
//!
//! Under VUsion the attacker's first read copy-on-accesses the page to a
//! private random frame (and `clflush` on a trapped PTE faults rather than
//! flushing), so reload timing is independent of the victim.

use vusion_core::EngineKind;
use vusion_kernel::{FusionPolicy, System, COSTS};
use vusion_mem::VirtAddr;

use crate::common::{labeled_page, settle, AttackVerdict, TwinSetup};

/// Outcome of the FLUSH+RELOAD sharing probe.
#[derive(Debug, Clone)]
pub struct PageSharingOutcome {
    /// Reload times (ns) for the duplicated page across trials.
    pub dup_reloads: Vec<u64>,
    /// Reload times (ns) for the unique control page.
    pub control_reloads: Vec<u64>,
    /// Verdict: success iff the duplicate reloads fast (shared) while the
    /// control reloads slow.
    pub verdict: AttackVerdict,
}

/// One FLUSH + victim-access + RELOAD round; returns the reload time.
fn flush_reload_round(
    sys: &mut System<Box<dyn FusionPolicy>>,
    setup: &TwinSetup,
    attacker_va: VirtAddr,
    victim_va: VirtAddr,
) -> u64 {
    // FLUSH the attacker's view of the line (through the journaled
    // wrapper, so a replayed run re-evicts the same line).
    sys.clflush(setup.attacker, attacker_va);
    // The victim does its thing (reads its own copy of the secret).
    sys.read(setup.victim, victim_va);
    // RELOAD.
    let t0 = sys.machine.now_ns();
    sys.read(setup.attacker, attacker_va);
    sys.machine.now_ns() - t0
}

/// Runs the attack against a fresh system of the given kind.
pub fn run(kind: EngineKind) -> PageSharingOutcome {
    const TRIALS: usize = 12;
    let mut sys = crate::common::attack_system(kind);
    let setup = TwinSetup::new(&mut sys, 8, 0, false);
    let (attacker, victim) = (setup.attacker, setup.victim);
    // Page 0: the attacker's guess of the victim's secret (correct).
    // Page 1: a unique control page. The victim also keeps a decoy page it
    // touches in control rounds so both rounds exercise victim activity.
    let dup = setup.merge_page(0);
    let control = setup.merge_page(1);
    let victim_secret = setup.merge_page(0);
    let victim_decoy = setup.merge_page(2);
    sys.write_page(victim, victim_secret, &labeled_page(0x7e57));
    sys.write_page(victim, victim_decoy, &labeled_page(0xdec0));
    sys.write_page(attacker, dup, &labeled_page(0x7e57));
    sys.write_page(attacker, control, &labeled_page(0xc0ff));
    settle(&mut sys, 32);
    let mut dup_reloads = Vec::with_capacity(TRIALS);
    let mut control_reloads = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        dup_reloads.push(flush_reload_round(&mut sys, &setup, dup, victim_secret));
        control_reloads.push(flush_reload_round(&mut sys, &setup, control, victim_decoy));
    }
    // Classify: a reload is "fast" when it is an LLC hit, i.e. well under
    // DRAM latency. Use the midpoint between hit and row-miss costs.
    let threshold = (COSTS.llc_hit + COSTS.dram_row_hit) / 2 + COSTS.cpu_op;
    let dup_fast = dup_reloads.iter().filter(|&&t| t <= threshold).count();
    let control_fast = control_reloads.iter().filter(|&&t| t <= threshold).count();
    // The attacker reads the sharing bit iff the duplicate is consistently
    // fast and the control consistently slow.
    let success = dup_fast * 2 > TRIALS && control_fast * 2 < TRIALS;
    PageSharingOutcome {
        dup_reloads,
        control_reloads,
        verdict: AttackVerdict { success },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_against_ksm() {
        let o = run(EngineKind::Ksm);
        assert!(
            o.verdict.success,
            "KSM: victim access must refill the shared line: {o:?}"
        );
    }

    #[test]
    fn succeeds_against_wpf() {
        let o = run(EngineKind::Wpf);
        assert!(
            o.verdict.success,
            "WPF shares physical lines after merge: {o:?}"
        );
    }

    #[test]
    fn fails_against_vusion() {
        let o = run(EngineKind::VUsion);
        assert!(
            !o.verdict.success,
            "VUsion: reload must not correlate with victim access: {o:?}"
        );
    }

    #[test]
    fn fails_without_fusion() {
        let o = run(EngineKind::NoFusion);
        assert!(!o.verdict.success, "no fusion, nothing shared: {o:?}");
    }
}
