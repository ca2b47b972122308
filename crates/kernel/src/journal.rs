//! The append-only event journal: every externally driven mutation of a
//! [`crate::Machine`], recorded as the *call* that caused it (never its
//! outcome), so `restore(snapshot) + replay(journal)` re-derives the exact
//! machine state deterministically.
//!
//! Recording is opt-in ([`crate::Machine::enable_journal`]) because
//! benchmarks drive millions of accesses. Composite operations (page-wise
//! read/write) record one event and suspend recording around their inner
//! byte accesses. Crash arming is deliberately *not* journaled: a replay
//! must converge to the uncrashed execution of the same call sequence,
//! which is exactly how the chaos tests verify crash recovery.

use vusion_mem::{VirtAddr, PAGE_SIZE};
use vusion_mmu::{range_end, Vma};
use vusion_snapshot::{Reader, SnapshotError, Writer};

use crate::machine::Pid;
use crate::pressure::PressureConfig;

/// One externally driven machine mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// `Machine::spawn`.
    Spawn {
        /// Process name.
        name: String,
    },
    /// `Machine::mmap`.
    Mmap {
        /// Target process.
        pid: Pid,
        /// The region added.
        vma: Vma,
    },
    /// `Machine::madvise_mergeable`.
    Madvise {
        /// Target process.
        pid: Pid,
        /// First page of the advised range.
        start: VirtAddr,
        /// Pages advised.
        pages: u64,
    },
    /// `System::try_read` / `System::read`.
    Read {
        /// Accessing process.
        pid: Pid,
        /// Address read.
        va: VirtAddr,
    },
    /// `System::try_write` / `System::write`.
    Write {
        /// Accessing process.
        pid: Pid,
        /// Address written.
        va: VirtAddr,
        /// Byte stored.
        value: u8,
    },
    /// `System::read_page`.
    ReadPage {
        /// Accessing process.
        pid: Pid,
        /// Page read.
        va: VirtAddr,
    },
    /// `System::write_page`.
    WritePage {
        /// Accessing process.
        pid: Pid,
        /// Page written.
        va: VirtAddr,
        /// Full page content stored.
        content: Box<[u8; PAGE_SIZE as usize]>,
    },
    /// `System::prefetch`.
    Prefetch {
        /// Accessing process.
        pid: Pid,
        /// Address prefetched.
        va: VirtAddr,
    },
    /// `System::force_scans`.
    ForceScans {
        /// Wakeups forced.
        n: usize,
    },
    /// `System::idle`.
    Idle {
        /// Simulated time passed.
        ns: u64,
    },
    /// `Machine::hammer`.
    Hammer {
        /// Hammering process.
        pid: Pid,
        /// First aggressor address.
        va1: VirtAddr,
        /// Second aggressor address.
        va2: VirtAddr,
        /// Activation pairs.
        iterations: u64,
    },
    /// `Machine::arm_faults` (the fault plan, unlike the crash plan, is
    /// part of the behavior a replay must reproduce).
    ArmFaults,
    /// `System::set_pressure_governor` (the governor changes scan
    /// behavior, so a replay must re-install the same control law).
    SetPressureGovernor {
        /// The governor configuration installed.
        cfg: PressureConfig,
    },
    /// `System::clflush` (the flush changes LLC state, which the timing
    /// side channel observes, so a replay must re-evict the same line).
    Clflush {
        /// Flushing process.
        pid: Pid,
        /// Address whose cache line is flushed.
        va: VirtAddr,
    },
}

impl JournalEvent {
    /// Stable lowercase name of this event's variant (coverage keys,
    /// report rows).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Spawn { .. } => "spawn",
            Self::Mmap { .. } => "mmap",
            Self::Madvise { .. } => "madvise",
            Self::Read { .. } => "read",
            Self::Write { .. } => "write",
            Self::ReadPage { .. } => "read_page",
            Self::WritePage { .. } => "write_page",
            Self::Prefetch { .. } => "prefetch",
            Self::ForceScans { .. } => "force_scans",
            Self::Idle { .. } => "idle",
            Self::Hammer { .. } => "hammer",
            Self::ArmFaults => "arm_faults",
            Self::SetPressureGovernor { .. } => "set_pressure_governor",
            Self::Clflush { .. } => "clflush",
        }
    }

    /// The process this event names, if any.
    pub fn pid(&self) -> Option<Pid> {
        match self {
            Self::Mmap { pid, .. }
            | Self::Madvise { pid, .. }
            | Self::Read { pid, .. }
            | Self::Write { pid, .. }
            | Self::ReadPage { pid, .. }
            | Self::WritePage { pid, .. }
            | Self::Prefetch { pid, .. }
            | Self::Hammer { pid, .. }
            | Self::Clflush { pid, .. } => Some(*pid),
            Self::Spawn { .. }
            | Self::ForceScans { .. }
            | Self::Idle { .. }
            | Self::ArmFaults
            | Self::SetPressureGovernor { .. } => None,
        }
    }

    /// Serializes one event.
    pub fn save(&self, w: &mut Writer) {
        match self {
            Self::Spawn { name } => {
                w.u8(0);
                w.str(name);
            }
            Self::Mmap { pid, vma } => {
                w.u8(1);
                w.usize(pid.0);
                vma.save(w);
            }
            Self::Madvise { pid, start, pages } => {
                w.u8(2);
                w.usize(pid.0);
                w.u64(start.0);
                w.u64(*pages);
            }
            Self::Read { pid, va } => {
                w.u8(3);
                w.usize(pid.0);
                w.u64(va.0);
            }
            Self::Write { pid, va, value } => {
                w.u8(4);
                w.usize(pid.0);
                w.u64(va.0);
                w.u8(*value);
            }
            Self::ReadPage { pid, va } => {
                w.u8(5);
                w.usize(pid.0);
                w.u64(va.0);
            }
            Self::WritePage { pid, va, content } => {
                w.u8(6);
                w.usize(pid.0);
                w.u64(va.0);
                w.bytes(content.as_slice());
            }
            Self::Prefetch { pid, va } => {
                w.u8(7);
                w.usize(pid.0);
                w.u64(va.0);
            }
            Self::ForceScans { n } => {
                w.u8(8);
                w.usize(*n);
            }
            Self::Idle { ns } => {
                w.u8(9);
                w.u64(*ns);
            }
            Self::Hammer {
                pid,
                va1,
                va2,
                iterations,
            } => {
                w.u8(10);
                w.usize(pid.0);
                w.u64(va1.0);
                w.u64(va2.0);
                w.u64(*iterations);
            }
            Self::ArmFaults => w.u8(11),
            Self::SetPressureGovernor { cfg } => {
                w.u8(12);
                cfg.save(w);
            }
            Self::Clflush { pid, va } => {
                w.u8(13);
                w.usize(pid.0);
                w.u64(va.0);
            }
        }
    }

    /// Deserializes one event. An `Mmap` area or a `Madvise` range that
    /// the machine could not apply (past the end of the address space) is
    /// [`SnapshotError::Corrupt`].
    pub fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Self::Spawn { name: r.str()? },
            1 => Self::Mmap {
                pid: Pid(r.usize()?),
                vma: Vma::load(r)?,
            },
            2 => {
                let (pid, start, pages) = (Pid(r.usize()?), VirtAddr(r.u64()?), r.u64()?);
                // The range `AddressSpace::madvise_mergeable` probes.
                if range_end(start.page_base(), pages.max(1)).is_none() {
                    return Err(SnapshotError::Corrupt("madvise range overflows"));
                }
                Self::Madvise { pid, start, pages }
            }
            3 => Self::Read {
                pid: Pid(r.usize()?),
                va: VirtAddr(r.u64()?),
            },
            4 => Self::Write {
                pid: Pid(r.usize()?),
                va: VirtAddr(r.u64()?),
                value: r.u8()?,
            },
            5 => Self::ReadPage {
                pid: Pid(r.usize()?),
                va: VirtAddr(r.u64()?),
            },
            6 => {
                let pid = Pid(r.usize()?);
                let va = VirtAddr(r.u64()?);
                let mut content = Box::new([0u8; PAGE_SIZE as usize]);
                content.copy_from_slice(r.bytes(PAGE_SIZE as usize)?);
                Self::WritePage { pid, va, content }
            }
            7 => Self::Prefetch {
                pid: Pid(r.usize()?),
                va: VirtAddr(r.u64()?),
            },
            8 => Self::ForceScans { n: r.usize()? },
            9 => Self::Idle { ns: r.u64()? },
            10 => Self::Hammer {
                pid: Pid(r.usize()?),
                va1: VirtAddr(r.u64()?),
                va2: VirtAddr(r.u64()?),
                iterations: r.u64()?,
            },
            11 => Self::ArmFaults,
            12 => Self::SetPressureGovernor {
                cfg: PressureConfig::load(r)?,
            },
            13 => Self::Clflush {
                pid: Pid(r.usize()?),
                va: VirtAddr(r.u64()?),
            },
            _ => return Err(SnapshotError::Corrupt("unknown journal event tag")),
        })
    }

    /// Serializes a whole journal (length-prefixed event list).
    pub fn save_all(events: &[JournalEvent], w: &mut Writer) {
        w.usize(events.len());
        for ev in events {
            ev.save(w);
        }
    }

    /// Deserializes a journal written by [`Self::save_all`].
    pub fn load_all(r: &mut Reader<'_>) -> Result<Vec<JournalEvent>, SnapshotError> {
        // Every event takes at least its one-byte tag.
        let n = r.len_prefix(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::load(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_mmu::Protection;

    /// One event of each variant, in wire-tag order.
    fn one_of_each() -> Vec<JournalEvent> {
        let mut content = Box::new([0u8; PAGE_SIZE as usize]);
        for (i, b) in content.iter_mut().enumerate() {
            *b = (i % 253) as u8;
        }
        vec![
            JournalEvent::Spawn { name: "vm0".into() },
            JournalEvent::Mmap {
                pid: Pid(0),
                vma: Vma::anon(VirtAddr(0x10000), 8, Protection::rw()),
            },
            JournalEvent::Madvise {
                pid: Pid(0),
                start: VirtAddr(0x10000),
                pages: 8,
            },
            JournalEvent::Read {
                pid: Pid(0),
                va: VirtAddr(0x10010),
            },
            JournalEvent::Write {
                pid: Pid(0),
                va: VirtAddr(0x10020),
                value: 0xab,
            },
            JournalEvent::ReadPage {
                pid: Pid(0),
                va: VirtAddr(0x11000),
            },
            JournalEvent::WritePage {
                pid: Pid(0),
                va: VirtAddr(0x12000),
                content,
            },
            JournalEvent::Prefetch {
                pid: Pid(0),
                va: VirtAddr(0x10000),
            },
            JournalEvent::ForceScans { n: 3 },
            JournalEvent::Idle { ns: 1_000_000 },
            JournalEvent::Hammer {
                pid: Pid(0),
                va1: VirtAddr(0x10000),
                va2: VirtAddr(0x14000),
                iterations: 1_000_000,
            },
            JournalEvent::ArmFaults,
            JournalEvent::SetPressureGovernor {
                cfg: PressureConfig::standard(),
            },
            JournalEvent::Clflush {
                pid: Pid(0),
                va: VirtAddr(0x10040),
            },
        ]
    }

    #[test]
    fn events_round_trip() {
        let events = one_of_each();
        let mut w = Writer::new();
        JournalEvent::save_all(&events, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = JournalEvent::load_all(&mut r).expect("load");
        assert_eq!(back, events);
        assert!(r.is_empty());
    }

    #[test]
    fn kind_labels_are_distinct_and_exhaustive() {
        let events = one_of_each();
        // One event per wire tag: the list covers every variant.
        for (tag, ev) in events.iter().enumerate() {
            let mut w = Writer::new();
            ev.save(&mut w);
            assert_eq!(w.into_bytes()[0] as usize, tag, "{ev:?}");
        }
        let mut labels: Vec<&str> = events.iter().map(JournalEvent::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), events.len());
        assert_eq!(JournalEvent::ForceScans { n: 1 }.label(), "force_scans");
        // The tag after the last is unknown to the decoder: the list is
        // complete.
        let next = [events.len() as u8];
        assert_eq!(
            JournalEvent::load(&mut Reader::new(&next)),
            Err(SnapshotError::Corrupt("unknown journal event tag"))
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut w = Writer::new();
        w.u8(0xee);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(JournalEvent::load(&mut r).is_err());
    }
}
