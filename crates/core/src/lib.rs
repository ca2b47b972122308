//! Page-fusion engines: the paper's contribution and both baselines.
//!
//! Three engines implement [`vusion_kernel::FusionPolicy`]:
//!
//! * [`Ksm`] — Linux Kernel Same-page Merging as described in §2.1: opt-in
//!   via `madvise`, round-robin scan of N pages every T ms, a *stable*
//!   tree of write-protected fused pages and an *unstable* tree of
//!   unprotected candidates, merge-in-place (one sharer's frame backs the
//!   fused page — the Flip Feng Shui weakness), copy-on-write unmerge (the
//!   timing-side-channel weakness).
//! * [`Wpf`] — Windows Page Fusion as reverse-engineered in §2.2: no opt-in,
//!   periodic full passes, hash-sorted candidate list, merging into a
//!   content tree whose pages come from a *new* allocation by a linear
//!   end-of-memory allocator (`MiAllocatePagesForMdl`) — which defeats plain
//!   Flip Feng Shui but falls to the reuse-based variant of §5.2.
//! * [`VUsion`] — the secure design of §6–§8: **Same Behavior** via
//!   share-xor-fetch (reserved-bit + PCD traps on every page considered for
//!   fusion) and Fake Merging (identical code paths, deferred frees, per-scan
//!   re-randomized backing frames); **Randomized Allocation** via a random
//!   frame pool; working-set estimation via idle-page tracking; secure THP
//!   handling (break-before-fuse, idle-gated collapse).
//!
//! Every content tree of the paper — KSM's stable and unstable trees, WPF's
//! tree and VUsion's single tree — is a content index: a crate-private
//! `ContentIndex` that finds a page's duplicate by hash bucket plus a byte
//! compare. KSM's red-black trees (§2.1) and WPF's AVL trees, which "have
//! the same functionality as KSM's stable tree" (§2.2), are ordered by
//! content, but what the paper measures depends only on which pages merge
//! (exact content equality), never on how the duplicate is found. Each
//! engine reaches its indexes only through `ContentIndex`, which keeps the
//! nodes, their frame map and their hash buckets in step.

mod content_index;
pub mod engine;
pub mod ksm;
mod mapping;
mod scan_cache;
pub mod vusion;
pub mod wpf;

pub use engine::{default_pool_frames, EngineKind};
pub use ksm::{Ksm, KsmConfig, KsmStats};
pub use vusion::{VUsion, VUsionConfig, VUsionStats};
pub use wpf::{Wpf, WpfConfig, WpfStats};

/// KSM's scan period `T` (20 ms): KSM and VUsion wake at it, and the
/// engine factory runs WPF's passes every 16 of them.
pub const SCAN_PERIOD_NS: u64 = 20_000_000;

/// KSM's pages per wake `N` (100): KSM's default, and VUsion's at every
/// wake (`N / T` = 5000 pages/s).
pub const PAGES_PER_SCAN: usize = 100;

/// Fusion accounting by guest page type (Table 3 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCounts {
    /// Guest page-cache pages merged.
    pub page_cache: u64,
    /// Guest-buddy (free) pages merged.
    pub guest_buddy: u64,
    /// Guest kernel pages merged.
    pub guest_kernel: u64,
    /// Everything else.
    pub rest: u64,
}

impl TagCounts {
    /// Records one merged page of the given guest tag.
    pub fn record(&mut self, tag: vusion_mmu::GuestTag) {
        match tag {
            vusion_mmu::GuestTag::PageCache => self.page_cache += 1,
            vusion_mmu::GuestTag::GuestBuddy => self.guest_buddy += 1,
            vusion_mmu::GuestTag::GuestKernel => self.guest_kernel += 1,
            vusion_mmu::GuestTag::Other => self.rest += 1,
        }
    }

    /// Appends the four counters to a snapshot.
    pub fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.page_cache);
        w.u64(self.guest_buddy);
        w.u64(self.guest_kernel);
        w.u64(self.rest);
    }

    /// Reads counters written by [`Self::save`].
    pub fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        Ok(Self {
            page_cache: r.u64()?,
            guest_buddy: r.u64()?,
            guest_kernel: r.u64()?,
            rest: r.u64()?,
        })
    }

    /// Total pages recorded.
    pub fn total(&self) -> u64 {
        self.page_cache + self.guest_buddy + self.guest_kernel + self.rest
    }

    /// Percentage breakdown `(page cache, buddy, kernel, rest)` as in
    /// Table 3.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.page_cache as f64 * 100.0 / t,
            self.guest_buddy as f64 * 100.0 / t,
            self.guest_kernel as f64 * 100.0 / t,
            self.rest as f64 * 100.0 / t,
        )
    }
}
