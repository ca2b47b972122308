//! Simulated physical memory substrate for the VUsion reproduction.
//!
//! The VUsion paper (SOSP'17) is a patch to the Linux memory-management
//! subsystem; its attacks and defenses are stated in terms of *physical
//! frames* and how they are allocated, shared, and reused. This crate builds
//! that substrate from scratch:
//!
//! * [`PhysMemory`] — a flat array of lazily materialized 4 KiB frames with
//!   per-frame metadata (reference counts, page types, flip templates).
//! * [`BuddyAllocator`] — a Linux-style binary buddy allocator with LIFO
//!   free lists. Its *predictable reuse* is exactly what the paper's
//!   Flip Feng Shui attack exploits and what Randomized Allocation defeats.
//! * [`LinearAllocator`] — Windows' `MiAllocatePagesForMdl`-style allocator
//!   that hands out mostly-contiguous frames from the end of physical
//!   memory; the substrate of the new reuse-based Flip Feng Shui attack (§5.2).
//! * [`RandomPool`] — VUsion's Randomized Allocation (`RA`) pool: 128 MiB of
//!   frames (2¹⁵ of them) out of which every merge/fake-merge backing frame
//!   is drawn uniformly at random (§7.1).
//! * [`DeferredFreeQueue`] — the deferred-free mechanism of Fake Merging
//!   decision (ii): frames freed during copy-on-access are queued and
//!   released in the background so the fault path takes the same time for
//!   merged and fake-merged pages.

pub mod addr;
pub mod buddy;
pub mod deferred;
pub mod error;
pub mod fault;
pub mod frame;
pub mod linear;
pub mod phys;
pub mod random_pool;

pub use addr::{FrameId, PhysAddr, VirtAddr, HUGE_PAGE_FRAMES, HUGE_PAGE_SIZE, PAGE_SIZE};
pub use buddy::{BuddyAllocator, BuddyStats};
pub use deferred::{DeferredFreeQueue, DeferredOp};
pub use error::MmError;
pub use fault::{
    CrashInjector, CrashPlan, CrashSite, FaultInjector, FaultPlan, FaultPlanError, InjectionStats,
};
pub use frame::{FrameInfo, FrameState, PageType};
pub use linear::LinearAllocator;
pub use phys::{content_hash, FrameInfoMut, PhysMemory};
pub use random_pool::RandomPool;

/// A frame allocator: the interface fusion engines use to obtain backing
/// frames. Implemented by [`BuddyAllocator`], [`LinearAllocator`] and
/// [`RandomPool`].
///
/// All operations are fallible: exhaustion surfaces as
/// [`MmError::OutOfFrames`] and misuse (double free, foreign frame) as the
/// corresponding [`MmError`] variant, never as a panic — failure paths are
/// load-bearing for the Same Behavior argument and are exercised directly
/// by the chaos suite.
pub trait FrameAllocator {
    /// Allocates one 4 KiB frame.
    fn alloc(&mut self) -> Result<FrameId, MmError>;
    /// Returns one 4 KiB frame to the allocator.
    fn free(&mut self, frame: FrameId) -> Result<(), MmError>;
    /// Number of frames currently available without stealing/refilling.
    fn free_frames(&self) -> usize;
}
