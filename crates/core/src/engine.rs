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
            sys.with_khugepaged(Khugepaged::new())
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
pub(crate) mod tests {
    use super::*;

    use vusion_mem::{FrameId, PhysMemory, VirtAddr, PAGE_SIZE};
    use vusion_mmu::{Protection, Vma};
    use vusion_snapshot::SnapshotError;

    use crate::content_index::ContentIndex;

    /// Repoints an indexed page, and its hash entry, at the first frame
    /// past `m`'s memory, as a crafted engine blob would.
    pub(crate) fn point_past_memory<V>(ix: &mut ContentIndex<V>, m: &Machine) {
        let frames = m.mem().frame_count();
        let node = ix.ids()[0];
        ix.set_frame(&PhysMemory::new(frames + 1), node, FrameId(frames as u64));
    }

    /// Restores three refused images into `s` after moving it on a
    /// scan period, so its state differs from theirs: a snapshot of
    /// another engine on the same machine, then `s`'s own snapshot after
    /// each tampering (each from the untampered state), which an id bound
    /// refuses: first a frame past memory, then a pid past the process
    /// table. Each restore must return exactly its error and leave `s`'s
    /// snapshot and metrics document byte for byte.
    pub(crate) fn assert_restore_refuses<P: FusionPolicy>(
        s: &mut System<P>,
        bad_frame: fn(&mut System<P>),
        bad_pid: fn(&mut System<P>),
    ) {
        let good = s.snapshot();
        let foreign = System::new(Machine::new(*s.machine.config()), NoFusion).snapshot();
        let mut refused = vec![(foreign, "engine tag mismatch")];
        for (tamper, why) in [
            (bad_frame, "frame id past the machine's memory"),
            (bad_pid, "pid past the machine's processes"),
        ] {
            tamper(s);
            refused.push((s.snapshot(), why));
            s.restore(&good).expect("the untampered snapshot restores");
        }
        s.idle(s.policy.scan_period_ns());
        let before = (s.snapshot(), s.metrics_snapshot().to_json());
        assert!(before.0 != good, "the target must differ from the snapshot");
        for (bytes, why) in refused {
            assert_eq!(s.restore(&bytes), Err(SnapshotError::Corrupt(why)));
            assert!(
                (s.snapshot(), s.metrics_snapshot().to_json()) == before,
                "the refused restore ({why}) changed the system"
            );
        }
    }

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
