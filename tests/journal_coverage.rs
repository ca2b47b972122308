//! Journal coverage: replay reconstructs a run only from the journal, so
//! every public entry point must journal exactly its own call, and
//! restore + replay of what it journaled must reproduce the system.
//!
//! The test holds one event per `JournalEvent` variant (pinned by wire
//! tag) and drives each through its public entry point. `call` matches
//! exhaustively and never goes through `System::replay_event`, so a new
//! variant does not compile until this test drives it, and an entry
//! point that stops recording (or a replay arm that stops re-executing)
//! fails here.

use vusion::kernel::JournalEvent;
use vusion::prelude::*;
use vusion_snapshot::{Reader, SnapshotError, Writer};

const BASE: u64 = 0x10000;
const PAGES: u64 = 16;

/// A page whose content pid 0 already holds before the journal starts,
/// so pid 1's copy of it is a merge candidate.
fn shared_page() -> Box<[u8; PAGE_SIZE as usize]> {
    let mut page = Box::new([0u8; PAGE_SIZE as usize]);
    for (i, b) in page.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    page
}

/// One event of each variant, in wire-tag order. Pid 0 exists before the
/// journal starts; the `Spawn` creates pid 1.
fn one_of_each() -> Vec<JournalEvent> {
    let page = |n: u64| VirtAddr(BASE + n * PAGE_SIZE);
    vec![
        JournalEvent::Spawn { name: "vm1".into() },
        JournalEvent::Mmap {
            pid: Pid(1),
            vma: Vma::anon(page(0), PAGES, Protection::rw()),
        },
        JournalEvent::Madvise {
            pid: Pid(1),
            start: page(0),
            pages: PAGES,
        },
        JournalEvent::Read {
            pid: Pid(0),
            va: VirtAddr(BASE + 0x10),
        },
        JournalEvent::Write {
            pid: Pid(1),
            va: VirtAddr(BASE + 0x20),
            value: 0xab,
        },
        JournalEvent::ReadPage {
            pid: Pid(0),
            va: page(2),
        },
        JournalEvent::WritePage {
            pid: Pid(1),
            va: page(1),
            content: shared_page(),
        },
        JournalEvent::Prefetch {
            pid: Pid(0),
            va: page(3),
        },
        JournalEvent::ForceScans { n: 3 },
        JournalEvent::Idle { ns: 50_000_000 },
        JournalEvent::Hammer {
            pid: Pid(0),
            va1: page(0),
            va2: page(4),
            iterations: 1_000,
        },
        JournalEvent::ArmFaults,
        JournalEvent::SetPressureGovernor {
            cfg: PressureConfig::standard(),
        },
        JournalEvent::Clflush {
            pid: Pid(0),
            va: VirtAddr(BASE + 0x40),
        },
    ]
}

/// Drives `ev` through its public entry point; `fallible` picks
/// `try_read`/`try_write` over `read`/`write`.
fn call(sys: &mut System<Box<dyn FusionPolicy>>, ev: &JournalEvent, fallible: bool) {
    match ev {
        JournalEvent::Spawn { name } => {
            sys.machine.spawn(name).expect("spawn");
        }
        JournalEvent::Mmap { pid, vma } => sys.machine.mmap(*pid, *vma),
        JournalEvent::Madvise { pid, start, pages } => {
            sys.machine.madvise_mergeable(*pid, *start, *pages);
        }
        JournalEvent::Read { pid, va } if fallible => {
            sys.try_read(*pid, *va).expect("mapped read");
        }
        JournalEvent::Read { pid, va } => {
            sys.read(*pid, *va);
        }
        JournalEvent::Write { pid, va, value } if fallible => {
            sys.try_write(*pid, *va, *value).expect("mapped write");
        }
        JournalEvent::Write { pid, va, value } => sys.write(*pid, *va, *value),
        JournalEvent::ReadPage { pid, va } => {
            sys.read_page(*pid, *va);
        }
        JournalEvent::WritePage { pid, va, content } => sys.write_page(*pid, *va, content),
        JournalEvent::Prefetch { pid, va } => sys.prefetch(*pid, *va),
        JournalEvent::ForceScans { n } => sys.force_scans(*n),
        JournalEvent::Idle { ns } => sys.idle(*ns),
        JournalEvent::Hammer {
            pid,
            va1,
            va2,
            iterations,
        } => {
            sys.machine.hammer(*pid, *va1, *va2, *iterations);
        }
        JournalEvent::ArmFaults => sys.machine.arm_faults(),
        JournalEvent::SetPressureGovernor { cfg } => {
            sys.set_pressure_governor(*cfg).expect("valid config");
        }
        JournalEvent::Clflush { pid, va } => sys.clflush(*pid, *va),
    }
}

/// A system with pid 0 mapped, advised and holding the shared page plus
/// one distinct page.
fn booted(kind: EngineKind) -> System<Box<dyn FusionPolicy>> {
    let mut sys = kind.build_system(MachineConfig::test_small());
    let pid = sys.machine.spawn("vm0").expect("spawn");
    sys.machine
        .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
    sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
    sys.write_page(pid, VirtAddr(BASE + PAGE_SIZE), &shared_page());
    sys.write_page(pid, VirtAddr(BASE), &[9; PAGE_SIZE as usize]);
    sys
}

#[test]
fn every_entry_point_journals_its_call_and_replays() {
    let events = one_of_each();
    // One event per wire tag, and the tag after the last does not decode:
    // the list covers every variant.
    for (tag, ev) in events.iter().enumerate() {
        let mut w = Writer::new();
        ev.save(&mut w);
        assert_eq!(w.into_bytes()[0] as usize, tag, "{ev:?}");
    }
    assert_eq!(
        JournalEvent::load(&mut Reader::new(&[events.len() as u8])),
        Err(SnapshotError::Corrupt("unknown journal event tag"))
    );

    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let mut sys = booted(kind);
        sys.machine.enable_journal();
        sys.machine.clear_journal();
        let base = sys.snapshot();
        for ev in &events {
            let paths: &[bool] = match ev {
                JournalEvent::Read { .. } | JournalEvent::Write { .. } => &[false, true],
                _ => &[false],
            };
            for &fallible in paths {
                let before = sys.machine.journal().len();
                call(&mut sys, ev, fallible);
                assert_eq!(
                    &sys.machine.journal()[before..],
                    std::slice::from_ref(ev),
                    "{kind:?}: the call must journal exactly itself"
                );
            }
        }
        assert_eq!(sys.machine.journal().len(), events.len() + 2);

        let mut fresh = booted(kind);
        fresh.restore(&base).expect("restore");
        fresh.replay(sys.machine.journal());
        assert!(
            fresh.snapshot() == sys.snapshot(),
            "{kind:?}: restore + replay diverged (snapshot)"
        );
        assert_eq!(
            fresh.metrics_snapshot().to_json(),
            sys.metrics_snapshot().to_json(),
            "{kind:?}: restore + replay diverged (metrics)"
        );
    }
}
