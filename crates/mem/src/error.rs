//! The workspace-wide memory-management error taxonomy.
//!
//! VUsion's security argument requires that *failure* paths behave exactly
//! like success paths: an allocation failure that aborts the simulation (or
//! takes a visibly different code path) is itself a distinguishable signal.
//! Every allocator, page-table operation and fault handler therefore
//! reports failure through [`MmError`] instead of panicking, and callers
//! degrade gracefully — skip-and-retry in the scanners, countable OOM in
//! the fault dispatcher, deferred-queue refill in the RA pool.

use crate::addr::{FrameId, VirtAddr};

/// Errors surfaced by the memory-management substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmError {
    /// The allocator has no frame to satisfy the request (genuine OOM or
    /// an injected failure — deliberately indistinguishable to callers).
    OutOfFrames,
    /// The randomized-allocation pool and its backing allocator are both
    /// empty, even after draining the deferred-free queue.
    PoolExhausted,
    /// A frame was freed twice.
    DoubleFree(FrameId),
    /// A frame outside the allocator's managed range was freed or split.
    ForeignFrame(FrameId),
    /// A block was freed or split with an order that does not match its
    /// allocation record.
    OrderMismatch {
        /// First frame of the block.
        frame: FrameId,
        /// Order recorded at allocation time.
        recorded: u8,
        /// Order the caller claimed.
        claimed: u8,
    },
    /// A page-table invariant was violated (walking an entry that is not a
    /// table, mapping over an existing mapping, misaligned huge mapping).
    BadPageTable(VirtAddr),
    /// A page fault could not be resolved by any handler (the simulated
    /// equivalent of SIGSEGV).
    UnresolvableFault(VirtAddr),
    /// A fault kept recurring on the same access beyond the retry budget.
    FaultLivelock(VirtAddr),
    /// An engine that needs a reserved physical region was attached to a
    /// machine configured without one.
    MissingReservedRegion,
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::OutOfFrames => write!(f, "out of physical frames"),
            MmError::PoolExhausted => {
                write!(f, "randomized pool exhausted (backing empty after drain)")
            }
            MmError::DoubleFree(frame) => write!(f, "double free of frame {}", frame.0),
            MmError::ForeignFrame(frame) => {
                write!(f, "frame {} is not managed by this allocator", frame.0)
            }
            MmError::OrderMismatch {
                frame,
                recorded,
                claimed,
            } => write!(
                f,
                "block at frame {} was allocated at order {recorded} but freed/split at order {claimed}",
                frame.0
            ),
            MmError::BadPageTable(va) => {
                write!(f, "page-table invariant violated at {:#x}", va.0)
            }
            MmError::UnresolvableFault(va) => {
                write!(f, "unresolvable fault (SIGSEGV) at {:#x}", va.0)
            }
            MmError::FaultLivelock(va) => write!(f, "fault livelock at {:#x}", va.0),
            MmError::MissingReservedRegion => {
                write!(f, "machine has no reserved top region")
            }
        }
    }
}

impl std::error::Error for MmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MmError::OutOfFrames.to_string().contains("out of"));
        assert!(MmError::DoubleFree(FrameId(7)).to_string().contains('7'));
        assert!(MmError::UnresolvableFault(VirtAddr(0x1000))
            .to_string()
            .contains("SIGSEGV"));
        let e = MmError::OrderMismatch {
            frame: FrameId(8),
            recorded: 9,
            claimed: 0,
        };
        assert!(e.to_string().contains("order 9"));
    }

    #[test]
    fn every_variant_has_distinct_display() {
        let all = all_variants();
        let msgs: Vec<String> = all.iter().map(|e| e.to_string()).collect();
        for (i, a) in msgs.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &msgs[i + 1..] {
                assert_ne!(a, b, "two variants share a Display message");
            }
        }
        assert!(MmError::PoolExhausted.to_string().contains("pool"));
        assert!(MmError::BadPageTable(VirtAddr(0x2000))
            .to_string()
            .contains("0x2000"));
        assert!(MmError::FaultLivelock(VirtAddr(0x3000))
            .to_string()
            .contains("livelock"));
        assert!(MmError::ForeignFrame(FrameId(9)).to_string().contains('9'));
        assert!(MmError::MissingReservedRegion
            .to_string()
            .contains("reserved"));
    }

    fn all_variants() -> Vec<MmError> {
        vec![
            MmError::OutOfFrames,
            MmError::PoolExhausted,
            MmError::DoubleFree(FrameId(7)),
            MmError::ForeignFrame(FrameId(65535)),
            MmError::OrderMismatch {
                frame: FrameId(8),
                recorded: 9,
                claimed: 0,
            },
            MmError::BadPageTable(VirtAddr(0xdead_b000)),
            MmError::UnresolvableFault(VirtAddr(0x1000)),
            MmError::FaultLivelock(VirtAddr(0x7fff_f000)),
            MmError::MissingReservedRegion,
        ]
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(MmError::OutOfFrames, MmError::OutOfFrames);
        assert_ne!(
            MmError::DoubleFree(FrameId(1)),
            MmError::DoubleFree(FrameId(2))
        );
    }
}
