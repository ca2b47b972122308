//! Engine factory: builds any of the evaluated fusion configurations.
//!
//! The paper's evaluation compares four configurations — "No dedup", "KSM",
//! "VUsion", "VUsion THP" — plus the Windows engine for the §5.2 attack and
//! two KSM variants for Figure 4. This enum names them all so experiments,
//! attacks, and benches can be written once and run against each.

use vusion_kernel::{FusionPolicy, Khugepaged, Machine, MachineConfig, NoFusion, System};

use crate::ksm::{Ksm, KsmConfig};
use crate::vusion::{VUsion, VUsionConfig};
use crate::wpf::{Wpf, WpfConfig};
use crate::SCAN_PERIOD_NS;

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

    /// Builds a complete [`System`] over a fresh machine: adapted config,
    /// policy, and (for the THP configuration) the secured khugepaged.
    /// Scanners wake every [`SCAN_PERIOD_NS`], WPF passes every 16
    /// periods, and VUsion's pool is [`default_pool_frames`].
    pub fn build_system(self, base: MachineConfig) -> System<Box<dyn FusionPolicy>> {
        let cfg = self.adapt_machine(base);
        let mut m = Machine::new(cfg);
        let vusion = VUsionConfig {
            pool_frames: default_pool_frames(cfg.frames),
            ..Default::default()
        };
        let policy: Box<dyn FusionPolicy> = match self {
            EngineKind::NoFusion => Box::new(NoFusion),
            EngineKind::Ksm => Box::new(Ksm::new(KsmConfig::default())),
            EngineKind::KsmCoa => Box::new(Ksm::new(KsmConfig {
                unmerge_on_read: true,
                ..Default::default()
            })),
            EngineKind::KsmZeroOnly => Box::new(Ksm::new(KsmConfig {
                zero_only: true,
                ..Default::default()
            })),
            EngineKind::Wpf => {
                let wpf = WpfConfig {
                    pass_period_ns: 16 * SCAN_PERIOD_NS,
                };
                match Wpf::new(&m, wpf) {
                    Ok(p) => Box::new(p),
                    // adapt_machine reserved the linear region above, so
                    // WPF construction cannot fail on a freshly built machine.
                    // vlint: allow(E001, construction on a fresh machine cannot fail — a panic here is a programming error worth stopping on)
                    Err(e) => unreachable!("engine construction failed: {e}"),
                }
            }
            EngineKind::VUsion => Box::new(VUsion::new(&mut m, vusion)),
            EngineKind::VUsionThp => Box::new(VUsion::new(&mut m, vusion.with_thp())),
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

    /// The scan skips against the walks they stand for. A content index
    /// stamped at the memory epoch skips its refresh walk, and WPF
    /// repeats its last all-clean pass at an unchanged `(layout epoch,
    /// memory epoch)` without walking its candidates. A system restored
    /// from a snapshot has neither stamp nor record, so it walks. Before
    /// every wake the running system's snapshot is restored into a fresh
    /// twin, both wake once, and the two must end in the same snapshot
    /// bytes and the same metrics. The one exception is
    /// `scan.shard_cost_ns.*`, which follows the hash memo's warmth, and a
    /// restore starts the memo cold. Between wakes, seeded steps move
    /// memory, the layout and the pressure governor, one kind at a time.
    mod skip_oracle {
        use std::collections::BTreeMap;

        use vusion_kernel::{FusionPolicy, Machine, MachineConfig, Pid, PressureConfig, System};
        use vusion_mem::{FrameId, PhysAddr, VirtAddr, PAGE_SIZE};
        use vusion_mmu::{Protection, PteFlags, Vma};
        use vusion_rng::rngs::StdRng;
        use vusion_rng::{RngExt, SeedableRng};

        use crate::{Ksm, KsmConfig, VUsion, VUsionConfig, Wpf, WpfConfig, SCAN_PERIOD_NS};

        const BASE: u64 = 0x10000;
        /// Pages each process maps at the start.
        const PAGES: u64 = 128;
        const PROCS: usize = 2;
        const WAKES: usize = 240;

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Step {
            Nothing,
            /// A guest write to a candidate page.
            GuestWrite,
            /// A guest write to a fused page: copy-on-write
            /// (copy-on-access for VUsion).
            CowWrite,
            /// A Rowhammer flip in a frame that backs a fused page.
            FlipTreeBit,
            /// A new mergeable area.
            Mmap,
            /// One more reference to a candidate's frame for one wake: a
            /// refcount change with no byte written.
            Refcount,
            /// Enough absorbed OOMs for the governor to enter Critical at
            /// the next wake, which runs `pressure_shrink`.
            Governor,
        }

        /// Page `fill`'s content: few fills, so duplicates abound.
        fn page(fill: u64) -> [u8; PAGE_SIZE as usize] {
            let mut p = [0u8; PAGE_SIZE as usize];
            for (i, chunk) in p.chunks_exact_mut(8).enumerate() {
                chunk.copy_from_slice(&(fill ^ (i as u64 % 7)).to_le_bytes());
            }
            p
        }

        /// Every mapped page of every process, with its leaf's frame and
        /// flags.
        fn mapped(m: &Machine) -> Vec<(Pid, VirtAddr, FrameId, PteFlags)> {
            let mut out = Vec::new();
            for pid in (0..m.process_count()).map(Pid) {
                for vma in m.process(pid).space.vmas() {
                    for va in vma.page_addrs() {
                        if let Some(leaf) = m.leaf(pid, va).filter(|l| l.pte.is_present()) {
                            out.push((pid, va, leaf.pte.frame(), leaf.pte.flags()));
                        }
                    }
                }
            }
            out
        }

        /// A fused page: write-protected (KSM, WPF) or trapped (VUsion).
        fn fused(flags: PteFlags) -> bool {
            !flags.contains(PteFlags::WRITABLE) || flags.contains(PteFlags::RESERVED)
        }

        /// The metrics document without the memo-dependent shard costs.
        fn metrics<P: FusionPolicy>(s: &System<P>) -> String {
            let mut snap = s.metrics_snapshot();
            snap.counters
                .retain(|k, _| !k.starts_with("scan.shard_cost_ns."));
            snap.to_json()
        }

        /// Runs the oracle on one engine under a governor with budgets up
        /// to `budget_max`; returns how many wakes the index stamp and the
        /// WPF record each skipped a walk in.
        fn run<P: FusionPolicy>(
            name: &str,
            budget_max: u64,
            engine: impl Fn(&mut Machine) -> P,
            skips: impl Fn(&P, &Machine) -> (bool, bool),
        ) -> (usize, usize) {
            let cfg = MachineConfig::test_small().with_reserved_top(256);
            let fresh = || {
                let mut m = Machine::new(cfg);
                let policy = engine(&mut m);
                (m, policy)
            };
            let (mut m, policy) = fresh();
            let pids: Vec<Pid> = (0..PROCS)
                .map(|i| m.spawn(&format!("vm{i}")).expect("spawn"))
                .collect();
            for &pid in &pids {
                m.mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
                m.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
            }
            let mut sys = System::new(m, policy);
            for (p, &pid) in pids.iter().enumerate() {
                for i in 0..PAGES {
                    // A third of the pages are unique; the rest come in 24
                    // fills.
                    let fill = if i % 3 == 0 {
                        1000 + i * 8 + p as u64
                    } else {
                        i % 24
                    };
                    sys.write_page(pid, VirtAddr(BASE + i * PAGE_SIZE), &page(fill));
                }
            }
            sys.set_pressure_governor(PressureConfig {
                budget_max,
                budget_add: budget_max / 4,
                ..PressureConfig::standard()
            })
            .expect("a valid governor");
            let mut rng = StdRng::seed_from_u64(0x5c1f);
            let mut next_area = BASE + 2 * PAGES * PAGE_SIZE;
            let mut ran: BTreeMap<Step, usize> = BTreeMap::new();
            let (mut stamp_skips, mut record_skips) = (0, 0);
            let mut history = Vec::new();
            for wake in 0..WAKES {
                let step = match rng.random_range(0..12u8) {
                    0..=3 => Step::Nothing,
                    4 | 5 => Step::GuestWrite,
                    6 => Step::CowWrite,
                    7 => Step::FlipTreeBit,
                    8 => Step::Mmap,
                    9 | 10 => Step::Refcount,
                    _ => Step::Governor,
                };
                let pages = mapped(&sys.machine);
                let pick = |rng: &mut StdRng, want: &dyn Fn(PteFlags) -> bool| {
                    let hits: Vec<_> = pages.iter().filter(|p| want(p.3)).collect();
                    (!hits.is_empty()).then(|| *hits[rng.random_range(0..hits.len())])
                };
                let offset = rng.random_range(0..PAGE_SIZE);
                let mut held = None;
                let did = match step {
                    Step::Nothing => Some(()),
                    Step::GuestWrite => pick(&mut rng, &|_| true).map(|(pid, va, _, _)| {
                        sys.write(pid, VirtAddr(va.0 + offset), rng.random_range(0..4u8));
                    }),
                    Step::CowWrite => pick(&mut rng, &fused).map(|(pid, va, _, _)| {
                        sys.write(pid, VirtAddr(va.0 + offset), 0x77);
                    }),
                    Step::FlipTreeBit => pick(&mut rng, &fused).map(|(_, _, frame, _)| {
                        let at = PhysAddr(frame.0 * PAGE_SIZE + offset);
                        sys.machine.mem_mut().flip_bit(at, rng.random_range(0..8u8));
                    }),
                    Step::Mmap => {
                        let pid = pids[rng.random_range(0..PROCS)];
                        sys.machine
                            .mmap(pid, Vma::anon(VirtAddr(next_area), 4, Protection::rw()));
                        sys.machine.madvise_mergeable(pid, VirtAddr(next_area), 4);
                        next_area += 8 * PAGE_SIZE;
                        Some(())
                    }
                    Step::Refcount => pick(&mut rng, &|f| !fused(f)).map(|(_, _, frame, _)| {
                        sys.machine.mem_mut().info_mut(frame).get();
                        held = Some(frame);
                    }),
                    Step::Governor => {
                        let calm =
                            sys.pressure_governor().band() != vusion_kernel::PressureBand::Critical;
                        for _ in 0..4 {
                            sys.machine.note_oom();
                        }
                        calm.then_some(())
                    }
                }
                .is_some();
                if did {
                    *ran.entry(step).or_default() += 1;
                }
                history.push(step);
                let (stamp, record) = skips(&sys.policy, &sys.machine);
                stamp_skips += usize::from(stamp);
                record_skips += usize::from(record);
                let (m, policy) = fresh();
                let mut twin = System::new(m, policy);
                twin.restore(&sys.snapshot())
                    .expect("restore into the twin");
                sys.force_scans(1);
                twin.force_scans(1);
                let tail = &history[history.len().saturating_sub(4)..];
                assert!(
                    sys.snapshot() == twin.snapshot(),
                    "{name} wake {wake}: the snapshot differs from a walking twin's (steps {tail:?}, stamp {stamp}, record {record})"
                );
                assert_eq!(
                    metrics(&sys),
                    metrics(&twin),
                    "{name} wake {wake}: the metrics differ from a walking twin's (steps {tail:?})"
                );
                if let Some(frame) = held {
                    // The engines leave a frame with a foreign reference
                    // alone, except KSM, which can merge an unstable-tree
                    // page away from it: then this reference is the last.
                    sys.machine
                        .put_frame(frame)
                        .expect("drop the extra reference");
                }
            }
            let kinds = [
                Step::Nothing,
                Step::GuestWrite,
                Step::CowWrite,
                Step::FlipTreeBit,
                Step::Mmap,
                Step::Refcount,
                Step::Governor,
            ];
            assert!(
                kinds.iter().all(|k| ran.contains_key(k)),
                "{name}: every step kind runs: {ran:?}"
            );
            assert!(
                sys.machine.audit_frames().is_empty(),
                "{name}: frames audit clean"
            );
            (stamp_skips, record_skips)
        }

        #[test]
        fn skips_match_the_walks_they_replace() {
            // KSM and VUsion visit at most 64 of their 256 or more
            // candidates per wake, so most wakes end inside a round (a
            // round's end re-randomizes VUsion's tree, which moves memory).
            // A WPF pass hashes every candidate in one wake unless a
            // pressure step has cut the budget, after which passes suspend
            // and resume for a few wakes.
            let (ksm, _) = run(
                "ksm",
                64,
                |_| Ksm::new(KsmConfig::default()),
                |k: &Ksm, m| k.skips(m),
            );
            let (wpf, record) = run(
                "wpf",
                1024,
                |m| {
                    Wpf::new(
                        m,
                        WpfConfig {
                            pass_period_ns: 16 * SCAN_PERIOD_NS,
                        },
                    )
                    .expect("the machine reserves a linear region")
                },
                |w: &Wpf, m| w.skips(m),
            );
            let (vusion, _) = run(
                "vusion",
                64,
                |m| {
                    VUsion::new(
                        m,
                        VUsionConfig {
                            pool_frames: 512,
                            ..Default::default()
                        },
                    )
                },
                |v: &VUsion, m| v.skips(m),
            );
            assert!(
                ksm > 0 && wpf > 0 && vusion > 0 && record > 0,
                "every skip is taken: index stamps ksm {ksm} wpf {wpf} vusion {vusion}, wpf record {record}"
            );
        }
    }
}
