//! The new page-color attack of §5.1: detect a merge by observing that the
//! target page's *physical address* changed across a fusion pass, via
//! PRIME+PROBE on the last-level cache.
//!
//! The attacker builds an eviction set per page color from its own
//! (non-mergeable) memory, measures the color of a target page, waits for
//! a fusion pass, and measures again. A color change reveals that the page
//! was re-backed — i.e. merged (`P_success = (C-1)/C`, ≈ 0.99 at 128
//! colors). The attacker only ever *reads* the target.
//!
//! VUsion defeats this with SB: every considered page is re-backed by a
//! random frame whether it merged or not (fake merging + per-scan
//! re-randomization), so a color change carries no information.

use vusion_core::EngineKind;
use vusion_kernel::{FusionPolicy, Pid, System, COSTS};
use vusion_mem::{VirtAddr, PAGE_SIZE};

use crate::common::{labeled_page, settle, AttackVerdict, TwinSetup};

/// Outcome of the page-color attack.
#[derive(Debug, Clone)]
pub struct PageColorOutcome {
    /// Per duplicated target: color before/after the pass.
    pub dup_colors: Vec<(usize, usize)>,
    /// Per unique control page: color before/after.
    pub control_colors: Vec<(usize, usize)>,
    /// Verdict: the attacker wins if duplicates changed color while
    /// controls did not (a distinguishable merge signal).
    pub verdict: AttackVerdict,
}

/// Eviction sets for every color, built from the attacker's own pages.
struct EvictionSets {
    /// Per color: one address per pool page of that color (≥ `ways`).
    sets: Vec<Vec<VirtAddr>>,
}

impl EvictionSets {
    /// Groups the attacker's utility pages by the color of their backing
    /// frames. Real attackers build these sets with timing alone in "a few
    /// minutes" (§5.1); we shortcut the construction with the attacker's
    /// knowledge of its own memory, which is the same end state.
    fn build(sys: &System<Box<dyn FusionPolicy>>, pid: Pid, base: VirtAddr, pages: u64) -> Self {
        let colors = sys.machine.llc().config().colors();
        let ways = sys.machine.llc().config().ways;
        let mut sets = vec![Vec::new(); colors];
        for i in 0..pages {
            let va = VirtAddr(base.0 + i * PAGE_SIZE);
            let Some(pa) = sys.machine.translate_quiet(pid, va) else {
                continue;
            };
            let color = sys.machine.llc().color_of(pa.frame());
            // Exactly `ways` lines: a larger set self-evicts during the
            // probe and destroys the signal.
            if sets[color].len() < ways {
                sets[color].push(va);
            }
        }
        Self { sets }
    }

    fn complete(&self, ways: usize) -> bool {
        self.sets.iter().all(|s| s.len() >= ways)
    }
}

/// PRIME+PROBE: returns the color whose eviction set shows the most probe
/// misses after accessing the target.
fn probe_color(
    sys: &mut System<Box<dyn FusionPolicy>>,
    pid: Pid,
    target: VirtAddr,
    ev: &EvictionSets,
) -> usize {
    let miss_threshold = COSTS.llc_hit * 3;
    let mut best = (0usize, 0u64);
    for (color, set) in ev.sets.iter().enumerate() {
        // PRIME: fill the set.
        for &va in set {
            sys.read(pid, va);
        }
        // Victim step: touch the target (a read — never a write).
        sys.read(pid, target);
        // PROBE: time the eviction set again; a slow member means the
        // target displaced us, i.e. the target has this color.
        let mut misses = 0u64;
        for &va in set {
            let t0 = sys.machine.now_ns();
            sys.read(pid, va);
            if sys.machine.now_ns() - t0 > miss_threshold {
                misses += 1;
            }
        }
        if misses > best.1 {
            best = (color, misses);
        }
    }
    best.0
}

/// Runs the attack against a fresh system of the given kind.
pub fn run(kind: EngineKind) -> PageColorOutcome {
    const DUPS: u64 = 4;
    const CONTROLS: u64 = 3;
    let mut sys = crate::common::attack_system(kind);
    let colors = sys.machine.llc().config().colors();
    let ways = sys.machine.llc().config().ways;
    // Utility pool large enough to find `ways` pages of every color.
    let util_pages = (colors * (ways + 4)) as u64;
    // Victim first: on a KSM promotion the victim's frame becomes the
    // stable page, so the *attacker's* mapping is the one re-pointed.
    let setup = TwinSetup::new(&mut sys, DUPS + CONTROLS, util_pages, true);
    let (attacker, victim) = (setup.attacker, setup.victim);
    // Populate the utility pool (unique contents, kept out of fusion).
    for i in 0..util_pages {
        sys.write(attacker, setup.util_page(i), (i % 251) as u8 + 1);
    }
    let ev = EvictionSets::build(&sys, attacker, setup.util_base, util_pages);
    assert!(
        ev.complete(ways),
        "utility pool too small for eviction sets"
    );
    // Targets: DUPS pages duplicated in the victim, CONTROLS unique pages.
    for i in 0..DUPS {
        sys.write_page(victim, setup.merge_page(i), &labeled_page(0x5ec1 + i));
        sys.write_page(attacker, setup.merge_page(i), &labeled_page(0x5ec1 + i));
    }
    for i in 0..CONTROLS {
        sys.write_page(
            attacker,
            setup.merge_page(DUPS + i),
            &labeled_page(0xaaaa_0000 + i),
        );
    }
    let before: Vec<usize> = (0..DUPS + CONTROLS)
        .map(|i| probe_color(&mut sys, attacker, setup.merge_page(i), &ev))
        .collect();
    // A fusion pass occurs.
    settle(&mut sys, (DUPS + CONTROLS) * 4);
    let after: Vec<usize> = (0..DUPS + CONTROLS)
        .map(|i| probe_color(&mut sys, attacker, setup.merge_page(i), &ev))
        .collect();
    let dup_colors: Vec<(usize, usize)> =
        (0..DUPS as usize).map(|i| (before[i], after[i])).collect();
    let control_colors: Vec<(usize, usize)> = (DUPS as usize..(DUPS + CONTROLS) as usize)
        .map(|i| (before[i], after[i]))
        .collect();
    let dup_changed = dup_colors.iter().filter(|(b, a)| b != a).count();
    let control_changed = control_colors.iter().filter(|(b, a)| b != a).count();
    // The attacker reads a merge signal iff duplicates systematically
    // change color while controls do not.
    let success = dup_changed * 2 > dup_colors.len() && control_changed == 0;
    PageColorOutcome {
        dup_colors,
        control_colors,
        verdict: AttackVerdict { success },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_probe_recovers_known_color() {
        let mut sys = crate::common::attack_system(EngineKind::NoFusion);
        let colors = sys.machine.llc().config().colors();
        let ways = sys.machine.llc().config().ways;
        let util_pages = (colors * (ways + 4)) as u64;
        let setup = TwinSetup::new(&mut sys, 4, util_pages, false);
        for i in 0..util_pages {
            sys.write(setup.attacker, setup.util_page(i), 1);
        }
        let ev = EvictionSets::build(&sys, setup.attacker, setup.util_base, util_pages);
        assert!(ev.complete(ways));
        let target = setup.merge_page(0);
        sys.write(setup.attacker, target, 9);
        let truth = {
            let pa = sys
                .machine
                .translate_quiet(setup.attacker, target)
                .expect("mapped");
            sys.machine.llc().color_of(pa.frame())
        };
        let measured = probe_color(&mut sys, setup.attacker, target, &ev);
        assert_eq!(measured, truth, "PRIME+PROBE must recover the true color");
    }

    #[test]
    fn succeeds_against_ksm() {
        let o = run(EngineKind::Ksm);
        assert!(
            o.verdict.success,
            "KSM leaks merges through color changes: {o:?}"
        );
    }

    #[test]
    fn succeeds_against_wpf() {
        let o = run(EngineKind::Wpf);
        assert!(
            o.verdict.success,
            "WPF allocates a new frame on merge — color changes: {o:?}"
        );
    }

    #[test]
    fn fails_against_vusion() {
        let o = run(EngineKind::VUsion);
        assert!(
            !o.verdict.success,
            "VUsion re-backs merged AND unmerged candidates alike: {o:?}"
        );
    }
}
