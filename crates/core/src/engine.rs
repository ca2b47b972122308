//! Engine factory: builds any of the evaluated fusion configurations.
//!
//! The paper's evaluation compares four configurations — "No dedup", "KSM",
//! "VUsion", "VUsion THP" — plus the Windows engine for the §5.2 attack and
//! two KSM variants for Figure 4. This enum names them all so experiments,
//! attacks, and benches can be written once and run against each.

use vusion_kernel::{FusionPolicy, Khugepaged, Machine, MachineConfig, NoFusion, System};
use vusion_mem::MmError;

use crate::ksm::{Ksm, KsmConfig};
use crate::vusion::{VUsion, VUsionConfig};
use crate::wpf::{Wpf, WpfConfig};

/// One of the evaluated fusion configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Fusion disabled ("No dedup").
    NoFusion,
    /// Linux KSM (insecure baseline).
    Ksm,
    /// KSM modified to unmerge on any fault (Figure 4's copy-on-access).
    KsmCoa,
    /// KSM merging only zero pages (Figure 4).
    KsmZeroOnly,
    /// Windows Page Fusion (insecure baseline).
    Wpf,
    /// VUsion (§7).
    VUsion,
    /// VUsion with the §8 THP enhancements.
    VUsionThp,
}

impl EngineKind {
    /// The four configurations of the performance tables.
    pub fn evaluation_set() -> [EngineKind; 4] {
        [
            EngineKind::NoFusion,
            EngineKind::Ksm,
            EngineKind::VUsion,
            EngineKind::VUsionThp,
        ]
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::NoFusion => "No dedup",
            EngineKind::Ksm => "KSM",
            EngineKind::KsmCoa => "KSM (copy-on-access)",
            EngineKind::KsmZeroOnly => "KSM (zero pages only)",
            EngineKind::Wpf => "WPF",
            EngineKind::VUsion => "VUsion",
            EngineKind::VUsionThp => "VUsion THP",
        }
    }

    /// Stable machine-readable identifier (snake_case, no spaces) for
    /// file names, coverage keys, and canonical JSON.
    pub fn slug(self) -> &'static str {
        match self {
            EngineKind::NoFusion => "no_fusion",
            EngineKind::Ksm => "ksm",
            EngineKind::KsmCoa => "ksm_coa",
            EngineKind::KsmZeroOnly => "ksm_zero_only",
            EngineKind::Wpf => "wpf",
            EngineKind::VUsion => "vusion",
            EngineKind::VUsionThp => "vusion_thp",
        }
    }

    /// Adjusts a machine config for this engine (WPF needs the reserved
    /// linear region; the THP configurations enable huge demand paging).
    pub fn adapt_machine(self, mut cfg: MachineConfig) -> MachineConfig {
        match self {
            EngineKind::Wpf => {
                if cfg.reserved_top_frames == 0 {
                    cfg.reserved_top_frames = (cfg.frames / 16).max(64);
                }
                cfg
            }
            EngineKind::VUsionThp => cfg.with_thp(),
            _ => cfg,
        }
    }

    /// Builds the policy for a machine (already adapted). Reports
    /// [`MmError::MissingReservedRegion`] if WPF is requested on a machine
    /// whose config was not adapted.
    pub fn build_policy(
        self,
        m: &mut Machine,
        scan_period_ns: u64,
        pool_frames: usize,
    ) -> Result<Box<dyn FusionPolicy>, MmError> {
        Ok(match self {
            EngineKind::NoFusion => Box::new(NoFusion),
            EngineKind::Ksm => Box::new(Ksm::new(KsmConfig {
                scan_period_ns,
                ..Default::default()
            })),
            EngineKind::KsmCoa => Box::new(Ksm::new(KsmConfig {
                scan_period_ns,
                unmerge_on_read: true,
                ..Default::default()
            })),
            EngineKind::KsmZeroOnly => Box::new(Ksm::new(KsmConfig {
                scan_period_ns,
                zero_only: true,
                ..Default::default()
            })),
            EngineKind::Wpf => Box::new(Wpf::new(
                m,
                WpfConfig {
                    pass_period_ns: scan_period_ns * 16,
                },
            )?),
            EngineKind::VUsion => Box::new(VUsion::new(
                m,
                VUsionConfig {
                    scan_period_ns,
                    pool_frames,
                    ..Default::default()
                },
            )),
            EngineKind::VUsionThp => Box::new(VUsion::new(
                m,
                VUsionConfig {
                    scan_period_ns,
                    pool_frames,
                    thp_enhancements: true,
                    ..Default::default()
                },
            )),
        })
    }

    /// Builds a complete [`System`] over a fresh machine: adapted config,
    /// policy, and (for the THP configuration) the secured khugepaged.
    pub fn build_system(self, base: MachineConfig) -> System<Box<dyn FusionPolicy>> {
        let cfg = self.adapt_machine(base);
        let mut m = Machine::new(cfg);
        let pool = default_pool_frames(cfg.frames);
        let policy = match self.build_policy(&mut m, 20_000_000, pool) {
            Ok(p) => p,
            // adapt_machine reserved the linear region above, so engine
            // construction cannot fail on a freshly built machine.
            // vlint: allow(E001, construction on a fresh machine cannot fail — a panic here is a programming error worth stopping on)
            Err(e) => unreachable!("engine construction failed: {e}"),
        };
        let sys = System::new(m, policy);
        if self == EngineKind::VUsionThp {
            sys.with_khugepaged(Khugepaged::new().with_min_active(1))
        } else {
            sys
        }
    }
}

/// Pool sizing rule for scaled machines: 1/16 of memory, at least 256
/// frames, capped at the paper's 2¹⁵.
pub fn default_pool_frames(machine_frames: u64) -> usize {
    ((machine_frames / 16).max(256) as usize).min(vusion_mem::random_pool::DEFAULT_POOL_FRAMES)
}

#[cfg(test)]
mod tests {
    use super::*;

    use vusion_mem::{VirtAddr, PAGE_SIZE};
    use vusion_mmu::{Protection, Vma};

    fn smoke(kind: EngineKind) {
        let mut sys = kind.build_system(MachineConfig::test_small());
        let a = sys.machine.spawn("a").expect("spawn");
        let b = sys.machine.spawn("b").expect("spawn");
        for pid in [a, b] {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(0x10000), 32, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(0x10000), 32);
        }
        let mut page = [7u8; PAGE_SIZE as usize];
        page[0] = 9;
        for pid in [a, b] {
            sys.write_page(pid, VirtAddr(0x10000), &page);
        }
        sys.force_scans(14);
        // Whatever the engine did, contents must be preserved.
        assert_eq!(sys.read_page(a, VirtAddr(0x10000)), page);
        assert_eq!(sys.read_page(b, VirtAddr(0x10000)), page);
    }

    #[test]
    fn every_engine_preserves_contents() {
        for kind in [
            EngineKind::NoFusion,
            EngineKind::Ksm,
            EngineKind::KsmCoa,
            EngineKind::KsmZeroOnly,
            EngineKind::Wpf,
            EngineKind::VUsion,
            EngineKind::VUsionThp,
        ] {
            smoke(kind);
        }
    }

    #[test]
    fn fusing_engines_actually_save_memory() {
        for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
            let mut sys = kind.build_system(MachineConfig::test_small());
            let a = sys.machine.spawn("a").expect("spawn");
            let b = sys.machine.spawn("b").expect("spawn");
            for pid in [a, b] {
                sys.machine
                    .mmap(pid, Vma::anon(VirtAddr(0x10000), 32, Protection::rw()));
                sys.machine.madvise_mergeable(pid, VirtAddr(0x10000), 32);
            }
            let page = [3u8; PAGE_SIZE as usize];
            for pid in [a, b] {
                sys.write_page(pid, VirtAddr(0x10000), &page);
            }
            sys.force_scans(14);
            assert!(sys.policy.pages_saved() >= 1, "{kind:?} saved nothing");
        }
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            EngineKind::NoFusion,
            EngineKind::Ksm,
            EngineKind::KsmCoa,
            EngineKind::KsmZeroOnly,
            EngineKind::Wpf,
            EngineKind::VUsion,
            EngineKind::VUsionThp,
        ];
        let labels: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
        let slugs: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.slug()).collect();
        assert_eq!(slugs.len(), kinds.len());
        for slug in slugs {
            assert!(
                slug.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "slug {slug:?} is not snake_case"
            );
        }
    }

    #[test]
    fn pool_sizing_rule() {
        assert_eq!(default_pool_frames(4096), 256);
        assert_eq!(default_pool_frames(65536), 4096);
        assert_eq!(default_pool_frames(100_000_000), 32768);
    }
}
