//! A content-indexed AVL tree, from scratch.
//!
//! Windows Page Fusion "stores the metadata about the already merged pages
//! in multiple AVL trees that have the same functionality as KSM's stable
//! tree" (§2.2). As with [`crate::rbtree`], keys are the 4 KiB contents of
//! referenced frames, so every comparing operation takes a `cmp` closure.

use std::cmp::Ordering;

use vusion_mem::FrameId;

use crate::rbtree::NodeId;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<V> {
    frame: FrameId,
    value: Option<V>,
    left: usize,
    right: usize,
    height: i32,
}

/// An AVL tree keyed by page content.
pub struct ContentAvlTree<V> {
    nodes: Vec<Node<V>>,
    root: usize,
    free: Vec<usize>,
    len: usize,
}

impl<V> Default for ContentAvlTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ContentAvlTree<V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            root: NIL,
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every node.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.len = 0;
    }

    fn is_live(&self, idx: usize) -> bool {
        idx < self.nodes.len() && self.nodes[idx].value.is_some()
    }

    /// The frame a node references.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn frame(&self, id: NodeId) -> FrameId {
        assert!(self.is_live(id.0), "stale node id");
        self.nodes[id.0].frame
    }

    /// The value stored at a node.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn value(&self, id: NodeId) -> &V {
        assert!(self.is_live(id.0), "stale node id");
        match self.nodes[id.0].value.as_ref() {
            Some(v) => v,
            // is_live above checked value.is_some().
            None => unreachable!("live node has a value"),
        }
    }

    /// The value stored at a node, mutably.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn value_mut(&mut self, id: NodeId) -> &mut V {
        assert!(self.is_live(id.0), "stale node id");
        match self.nodes[id.0].value.as_mut() {
            Some(v) => v,
            // is_live above checked value.is_some().
            None => unreachable!("live node has a value"),
        }
    }

    fn height(&self, idx: usize) -> i32 {
        if idx == NIL {
            0
        } else {
            self.nodes[idx].height
        }
    }

    fn update_height(&mut self, idx: usize) {
        let h = 1 + self
            .height(self.nodes[idx].left)
            .max(self.height(self.nodes[idx].right));
        self.nodes[idx].height = h;
    }

    fn balance_factor(&self, idx: usize) -> i32 {
        self.height(self.nodes[idx].left) - self.height(self.nodes[idx].right)
    }

    fn rotate_right(&mut self, y: usize) -> usize {
        let x = self.nodes[y].left;
        self.nodes[y].left = self.nodes[x].right;
        self.nodes[x].right = y;
        self.update_height(y);
        self.update_height(x);
        x
    }

    fn rotate_left(&mut self, x: usize) -> usize {
        let y = self.nodes[x].right;
        self.nodes[x].right = self.nodes[y].left;
        self.nodes[y].left = x;
        self.update_height(x);
        self.update_height(y);
        y
    }

    fn rebalance(&mut self, idx: usize) -> usize {
        self.update_height(idx);
        let bf = self.balance_factor(idx);
        if bf > 1 {
            if self.balance_factor(self.nodes[idx].left) < 0 {
                let l = self.nodes[idx].left;
                self.nodes[idx].left = self.rotate_left(l);
            }
            self.rotate_right(idx)
        } else if bf < -1 {
            if self.balance_factor(self.nodes[idx].right) > 0 {
                let r = self.nodes[idx].right;
                self.nodes[idx].right = self.rotate_right(r);
            }
            self.rotate_left(idx)
        } else {
            idx
        }
    }

    /// Searches for a node with content equal to `probe`'s.
    pub fn find(
        &self,
        probe: FrameId,
        mut cmp: impl FnMut(FrameId, FrameId) -> Ordering,
    ) -> Option<NodeId> {
        let mut cur = self.root;
        while cur != NIL {
            match cmp(probe, self.nodes[cur].frame) {
                Ordering::Equal => return Some(NodeId(cur)),
                Ordering::Less => cur = self.nodes[cur].left,
                Ordering::Greater => cur = self.nodes[cur].right,
            }
        }
        None
    }

    /// Inserts a node for `frame` unless an equal-content node exists.
    /// Returns `(id, true)` on insert or `(existing, false)` on a match.
    pub fn insert(
        &mut self,
        frame: FrameId,
        value: V,
        mut cmp: impl FnMut(FrameId, FrameId) -> Ordering,
    ) -> (NodeId, bool) {
        let mut found = None;
        let root = self.root;
        let new_root = self.insert_rec(root, frame, &mut Some(value), &mut cmp, &mut found);
        self.root = new_root;
        match found {
            Some((id, inserted)) => (id, inserted),
            // vlint: allow(E001, insert_rec always stages found before returning — reaching this arm is corruption worth stopping on)
            None => unreachable!("insert always resolves"),
        }
    }

    fn insert_rec(
        &mut self,
        idx: usize,
        frame: FrameId,
        value: &mut Option<V>,
        cmp: &mut impl FnMut(FrameId, FrameId) -> Ordering,
        found: &mut Option<(NodeId, bool)>,
    ) -> usize {
        if idx == NIL {
            let Some(v) = value.take() else {
                // The recursion reaches NIL at most once per insert, so
                // the staged value is still present.
                // vlint: allow(E001, the recursion reaches NIL at most once per insert)
                unreachable!("insert consumes its value exactly once");
            };
            let node = Node {
                frame,
                value: Some(v),
                left: NIL,
                right: NIL,
                height: 1,
            };
            let new = if let Some(slot) = self.free.pop() {
                self.nodes[slot] = node;
                slot
            } else {
                self.nodes.push(node);
                self.nodes.len() - 1
            };
            self.len += 1;
            *found = Some((NodeId(new), true));
            return new;
        }
        match cmp(frame, self.nodes[idx].frame) {
            Ordering::Equal => {
                *found = Some((NodeId(idx), false));
                idx
            }
            Ordering::Less => {
                let l = self.nodes[idx].left;
                let nl = self.insert_rec(l, frame, value, cmp, found);
                self.nodes[idx].left = nl;
                self.rebalance(idx)
            }
            Ordering::Greater => {
                let r = self.nodes[idx].right;
                let nr = self.insert_rec(r, frame, value, cmp, found);
                self.nodes[idx].right = nr;
                self.rebalance(idx)
            }
        }
    }

    /// Removes the node whose content equals `probe`'s, returning its value.
    pub fn remove(
        &mut self,
        probe: FrameId,
        mut cmp: impl FnMut(FrameId, FrameId) -> Ordering,
    ) -> Option<V> {
        let mut removed = None;
        let root = self.root;
        self.root = self.remove_rec(root, probe, &mut cmp, &mut removed);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(
        &mut self,
        idx: usize,
        probe: FrameId,
        cmp: &mut impl FnMut(FrameId, FrameId) -> Ordering,
        removed: &mut Option<V>,
    ) -> usize {
        if idx == NIL {
            return NIL;
        }
        match cmp(probe, self.nodes[idx].frame) {
            Ordering::Less => {
                let l = self.nodes[idx].left;
                let nl = self.remove_rec(l, probe, cmp, removed);
                self.nodes[idx].left = nl;
                self.rebalance(idx)
            }
            Ordering::Greater => {
                let r = self.nodes[idx].right;
                let nr = self.remove_rec(r, probe, cmp, removed);
                self.nodes[idx].right = nr;
                self.rebalance(idx)
            }
            Ordering::Equal => {
                *removed = self.nodes[idx].value.take();
                let (l, r) = (self.nodes[idx].left, self.nodes[idx].right);
                self.free.push(idx);
                if l == NIL {
                    return r;
                }
                if r == NIL {
                    return l;
                }
                // Two children: replace with in-order successor.
                let succ = {
                    let mut s = r;
                    while self.nodes[s].left != NIL {
                        s = self.nodes[s].left;
                    }
                    s
                };
                let succ_frame = self.nodes[succ].frame;
                let succ_value = self.nodes[succ].value.take();
                // Detach the successor from the right subtree.
                let mut detached = None;
                let nr = self.detach_min(r, &mut detached);
                debug_assert_eq!(detached, Some(succ));
                // Reuse the detached successor slot as the new subtree root.
                self.free.retain(|&f| f != idx); // idx is being reused below.
                self.nodes[idx].frame = succ_frame;
                self.nodes[idx].value = succ_value;
                self.nodes[idx].right = nr;
                // Left child unchanged.
                self.free.push(succ);
                self.rebalance(idx)
            }
        }
    }

    fn detach_min(&mut self, idx: usize, detached: &mut Option<usize>) -> usize {
        if self.nodes[idx].left == NIL {
            *detached = Some(idx);
            return self.nodes[idx].right;
        }
        let l = self.nodes[idx].left;
        let nl = self.detach_min(l, detached);
        self.nodes[idx].left = nl;
        self.rebalance(idx)
    }

    /// Serializes the arena slot-for-slot, including the free list, so
    /// [`Self::load_with`] reproduces identical [`NodeId`]s and slot-reuse
    /// order.
    pub fn save_with(
        &self,
        w: &mut vusion_snapshot::Writer,
        mut save_value: impl FnMut(&V, &mut vusion_snapshot::Writer),
    ) {
        w.usize(self.nodes.len());
        for n in &self.nodes {
            w.u64(n.frame.0);
            w.usize(n.left);
            w.usize(n.right);
            w.u32(n.height as u32);
            match &n.value {
                Some(v) => {
                    w.bool(true);
                    save_value(v, w);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.root);
        w.usize(self.free.len());
        for &slot in &self.free {
            w.usize(slot);
        }
        w.usize(self.len);
    }

    /// Rebuilds a tree written by [`Self::save_with`].
    pub fn load_with(
        r: &mut vusion_snapshot::Reader<'_>,
        mut load_value: impl FnMut(
            &mut vusion_snapshot::Reader<'_>,
        ) -> Result<V, vusion_snapshot::SnapshotError>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        // A node takes at least 29 bytes: frame, two links, height and the
        // value flag.
        let count = r.len_prefix(29)?;
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let frame = FrameId(r.u64()?);
            let left = r.usize()?;
            let right = r.usize()?;
            let height = r.u32()? as i32;
            let value = if r.bool()? {
                Some(load_value(r)?)
            } else {
                None
            };
            nodes.push(Node {
                frame,
                value,
                left,
                right,
                height,
            });
        }
        let root = r.usize()?;
        let free_count = r.len_prefix(8)?;
        let mut free = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            free.push(r.usize()?);
        }
        let len = r.usize()?;
        Ok(Self {
            nodes,
            root,
            free,
            len,
        })
    }

    /// Verifies AVL invariants (heights correct, |balance| ≤ 1). Returns
    /// the tree height.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) -> i32 {
        self.check(self.root)
    }

    /// # Panics
    ///
    /// Panics if the subtree violates the AVL height or balance invariant.
    fn check(&self, idx: usize) -> i32 {
        if idx == NIL {
            return 0;
        }
        let lh = self.check(self.nodes[idx].left);
        let rh = self.check(self.nodes[idx].right);
        assert_eq!(self.nodes[idx].height, 1 + lh.max(rh), "stale height");
        assert!((lh - rh).abs() <= 1, "AVL balance violated");
        1 + lh.max(rh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_id(a: FrameId, b: FrameId) -> Ordering {
        a.0.cmp(&b.0)
    }

    #[test]
    fn crafted_lengths_are_truncated_not_allocated() {
        use vusion_snapshot::{Reader, SnapshotError, Writer};
        let mut w = Writer::new();
        w.u64(u64::MAX >> 8);
        let nodes = w.into_bytes();
        let mut w = Writer::new();
        w.usize(0);
        w.usize(NIL);
        w.u64(u64::MAX >> 8);
        let free = w.into_bytes();
        for bytes in [nodes, free] {
            let got = ContentAvlTree::<u32>::load_with(&mut Reader::new(&bytes), |r| r.u32());
            assert!(matches!(got, Err(SnapshotError::Truncated)));
        }
    }

    #[test]
    fn insert_find_remove() {
        let mut t = ContentAvlTree::new();
        let (a, ins) = t.insert(FrameId(10), "ten", by_id);
        assert!(ins);
        t.insert(FrameId(5), "five", by_id);
        t.insert(FrameId(15), "fifteen", by_id);
        assert_eq!(t.len(), 3);
        assert_eq!(t.find(FrameId(10), by_id), Some(a));
        assert_eq!(t.remove(FrameId(10), by_id), Some("ten"));
        assert_eq!(t.find(FrameId(10), by_id), None);
        assert_eq!(t.len(), 2);
        t.assert_invariants();
    }

    #[test]
    fn duplicate_returns_existing() {
        let mut t = ContentAvlTree::new();
        let (a, _) = t.insert(FrameId(1), 1u32, by_id);
        let (b, inserted) = t.insert(FrameId(1), 2u32, by_id);
        assert_eq!(a, b);
        assert!(!inserted);
        assert_eq!(*t.value(a), 1);
    }

    #[test]
    fn ascending_insert_is_logarithmic() {
        let mut t = ContentAvlTree::new();
        for i in 0..1024u64 {
            t.insert(FrameId(i), (), by_id);
        }
        let h = t.assert_invariants();
        // AVL height ≤ 1.44 log2(n+2): for 1024 nodes that is ≤ 15.
        assert!(h <= 15, "height {h} too large for 1024 nodes");
    }

    #[test]
    fn interleaved_ops_keep_invariants() {
        let mut t = ContentAvlTree::new();
        let mut present = std::collections::BTreeSet::new();
        let mut x = 999u64;
        for step in 0..4000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let key = x >> 45;
            if step % 3 != 2 {
                t.insert(FrameId(key), key, by_id);
                present.insert(key);
            } else if let Some(&k) = present.iter().next() {
                assert_eq!(t.remove(FrameId(k), by_id), Some(k));
                present.remove(&k);
            }
            if step % 237 == 0 {
                t.assert_invariants();
            }
        }
        t.assert_invariants();
        assert_eq!(t.len(), present.len());
        for &k in &present {
            assert!(t.find(FrameId(k), by_id).is_some(), "key {k} lost");
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = ContentAvlTree::new();
        t.insert(FrameId(1), (), by_id);
        assert_eq!(t.remove(FrameId(2), by_id), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_node_with_two_children() {
        let mut t = ContentAvlTree::new();
        for k in [50u64, 25, 75, 10, 30, 60, 90, 27, 35] {
            t.insert(FrameId(k), k, by_id);
        }
        assert_eq!(t.remove(FrameId(25), by_id), Some(25));
        t.assert_invariants();
        for k in [50u64, 75, 10, 30, 60, 90, 27, 35] {
            assert!(t.find(FrameId(k), by_id).is_some(), "{k} lost");
        }
        assert_eq!(t.find(FrameId(25), by_id), None);
    }

    #[test]
    fn clear_empties() {
        let mut t = ContentAvlTree::new();
        for i in 0..10u64 {
            t.insert(FrameId(i), (), by_id);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.find(FrameId(3), by_id), None);
    }

    #[test]
    fn content_comparator_with_memory() {
        use vusion_mem::{PhysAddr, PhysMemory};
        let mut mem = PhysMemory::new(3);
        mem.write_byte(PhysAddr(0), 7);
        mem.write_byte(PhysAddr(2 * 4096), 7); // Frame 2 equals frame 0.
        let mut t = ContentAvlTree::new();
        let cmp = |a: FrameId, b: FrameId| mem.compare_pages(a, b);
        let (n0, _) = t.insert(FrameId(0), "x", cmp);
        let (n2, inserted) = t.insert(FrameId(2), "y", cmp);
        assert!(!inserted);
        assert_eq!(n0, n2);
    }
}
