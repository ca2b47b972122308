//! Deferred-free queue (Fake Merging design decision ii, §7.1).
//!
//! Without care, a copy-on-access fault on a *fake-merged* page is slower
//! than on a merged page: the fake-merged page's old frame drops to zero
//! references inside the fault handler and interacts with the buddy
//! allocator, while a merged page's shared frame usually survives. VUsion
//! closes this timing channel by queueing frees and processing them in the
//! background; real merges queue a **dummy** request so both paths execute
//! the same instructions.

use std::collections::VecDeque;

use crate::addr::FrameId;

/// An entry in the deferred queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeferredOp {
    /// Release this frame to the allocator (fake-merge path).
    Free(FrameId),
    /// No-op placeholder queued by the real-merge path so that both paths
    /// perform identical work in the fault handler.
    Dummy,
}

/// FIFO queue of deferred operations, drained by the background scanner.
#[derive(Debug, Default)]
pub struct DeferredFreeQueue {
    ops: VecDeque<DeferredOp>,
    processed_frees: u64,
    processed_dummies: u64,
}

impl DeferredFreeQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a frame for background release.
    pub fn push_free(&mut self, frame: FrameId) {
        self.ops.push_back(DeferredOp::Free(frame));
    }

    /// Queues a dummy request (real-merge path).
    pub fn push_dummy(&mut self) {
        self.ops.push_back(DeferredOp::Dummy);
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drains up to `limit` operations, invoking `release` for each queued
    /// free. Returns the number of operations processed.
    pub fn drain(&mut self, limit: usize, mut release: impl FnMut(FrameId)) -> usize {
        let mut n = 0;
        while n < limit {
            let Some(op) = self.ops.pop_front() else {
                break;
            };
            match op {
                DeferredOp::Free(f) => {
                    release(f);
                    self.processed_frees += 1;
                }
                DeferredOp::Dummy => self.processed_dummies += 1,
            }
            n += 1;
        }
        n
    }

    /// Total frees processed so far.
    pub fn processed_frees(&self) -> u64 {
        self.processed_frees
    }

    /// Total dummies processed so far.
    pub fn processed_dummies(&self) -> u64 {
        self.processed_dummies
    }
}

impl vusion_snapshot::Snapshot for DeferredFreeQueue {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.ops.len());
        for op in &self.ops {
            match op {
                DeferredOp::Free(f) => {
                    w.u8(0);
                    w.u64(f.0);
                }
                DeferredOp::Dummy => w.u8(1),
            }
        }
        w.u64(self.processed_frees);
        w.u64(self.processed_dummies);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        let Self {
            ops,
            processed_frees,
            processed_dummies,
        } = self;
        let n = r.usize()?;
        ops.clear();
        for _ in 0..n {
            let op = match r.u8()? {
                0 => DeferredOp::Free(FrameId(r.frame()?)),
                1 => DeferredOp::Dummy,
                _ => return Err(vusion_snapshot::SnapshotError::Corrupt("deferred op")),
            };
            ops.push_back(op);
        }
        *processed_frees = r.u64()?;
        *processed_dummies = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_field() {
        let mut src = DeferredFreeQueue::new();
        src.push_free(FrameId(1));
        src.push_free(FrameId(2));
        src.push_dummy();
        src.drain(3, |_| {});
        src.push_free(FrameId(7));
        src.push_dummy();
        let (a, b) = vusion_snapshot::resave(&src, &mut DeferredFreeQueue::new()).expect("resave");
        assert_eq!(a, b);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DeferredFreeQueue::new();
        q.push_free(FrameId(1));
        q.push_free(FrameId(2));
        let mut seen = Vec::new();
        q.drain(10, |f| seen.push(f));
        assert_eq!(seen, vec![FrameId(1), FrameId(2)]);
    }

    #[test]
    fn drain_respects_limit() {
        let mut q = DeferredFreeQueue::new();
        for i in 0..5 {
            q.push_free(FrameId(i));
        }
        let mut seen = Vec::new();
        assert_eq!(q.drain(2, |f| seen.push(f)), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn dummies_do_not_release_frames() {
        let mut q = DeferredFreeQueue::new();
        q.push_dummy();
        q.push_free(FrameId(9));
        q.push_dummy();
        let mut seen = Vec::new();
        assert_eq!(q.drain(10, |f| seen.push(f)), 3);
        assert_eq!(seen, vec![FrameId(9)]);
        assert_eq!(q.processed_dummies(), 2);
        assert_eq!(q.processed_frees(), 1);
    }

    #[test]
    fn push_cost_is_identical_shape() {
        // Both paths enqueue exactly one entry — the SB property at the
        // queue level.
        let mut q = DeferredFreeQueue::new();
        q.push_free(FrameId(0));
        let after_free = q.len();
        q.push_dummy();
        let after_dummy = q.len();
        assert_eq!(after_dummy - after_free, after_free);
    }

    #[test]
    fn empty_drain_is_noop() {
        let mut q = DeferredFreeQueue::new();
        assert_eq!(q.drain(10, |_| panic!("nothing to release")), 0);
        assert!(q.is_empty());
    }
}
