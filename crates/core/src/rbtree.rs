//! A content-indexed red-black tree, from scratch.
//!
//! KSM's stable and unstable trees are red-black trees that "use the
//! contents of the pages to balance themselves" (§2.1): the key of a node
//! is the 4 KiB content of the physical frame it references, compared
//! lexicographically. Because the tree cannot own the frames, every
//! comparing operation takes a `cmp` closure (the engines pass
//! [`vusion_mem::PhysMemory::compare_pages`]).
//!
//! The implementation is an arena-based CLRS red-black tree with parent
//! pointers, full insert/delete fixups, and a structural checker that
//! [`ContentRbTree::load_with`] runs on every restored tree and the
//! property tests run through [`ContentRbTree::assert_invariants`].

use std::cmp::Ordering;

use vusion_mem::FrameId;

/// Handle to a tree node. Stable until the node is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug)]
struct Node<V> {
    frame: FrameId,
    value: Option<V>, // None marks a freed arena slot.
    left: usize,
    right: usize,
    parent: usize,
    color: Color,
}

/// A red-black tree whose keys are page contents.
pub struct ContentRbTree<V> {
    nodes: Vec<Node<V>>,
    root: usize,
    free: Vec<usize>,
    len: usize,
}

impl<V> Default for ContentRbTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ContentRbTree<V> {
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

    /// The frame a node references.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn frame(&self, id: NodeId) -> FrameId {
        assert!(self.is_live(id.0), "stale node id");
        self.nodes[id.0].frame
    }

    /// Repoints a node at a different frame **with identical content** (the
    /// VUsion re-randomization of backing frames, §7.1 decision iii). The
    /// caller guarantees content equality, so ordering is unaffected.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn set_frame(&mut self, id: NodeId, frame: FrameId) {
        assert!(self.is_live(id.0), "stale node id");
        self.nodes[id.0].frame = frame;
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

    /// Whether `id` names a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.is_live(id.0)
    }

    fn is_live(&self, idx: usize) -> bool {
        idx < self.nodes.len() && self.nodes[idx].value.is_some()
    }

    /// Searches for a node whose frame content equals `probe`'s, using
    /// `cmp(probe, node_frame)`.
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
        let mut parent = NIL;
        let mut cur = self.root;
        let mut went_left = false;
        while cur != NIL {
            parent = cur;
            match cmp(frame, self.nodes[cur].frame) {
                Ordering::Equal => return (NodeId(cur), false),
                Ordering::Less => {
                    cur = self.nodes[cur].left;
                    went_left = true;
                }
                Ordering::Greater => {
                    cur = self.nodes[cur].right;
                    went_left = false;
                }
            }
        }
        let idx = self.alloc_node(frame, value, parent);
        if parent == NIL {
            self.root = idx;
        } else if went_left {
            self.nodes[parent].left = idx;
        } else {
            self.nodes[parent].right = idx;
        }
        self.len += 1;
        self.insert_fixup(idx);
        (NodeId(idx), true)
    }

    fn alloc_node(&mut self, frame: FrameId, value: V, parent: usize) -> usize {
        let node = Node {
            frame,
            value: Some(value),
            left: NIL,
            right: NIL,
            parent,
            color: Color::Red,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn color(&self, idx: usize) -> Color {
        if idx == NIL {
            Color::Black
        } else {
            self.nodes[idx].color
        }
    }

    fn rotate_left(&mut self, x: usize) {
        let y = self.nodes[x].right;
        debug_assert_ne!(y, NIL);
        self.nodes[x].right = self.nodes[y].left;
        if self.nodes[y].left != NIL {
            let l = self.nodes[y].left;
            self.nodes[l].parent = x;
        }
        self.nodes[y].parent = self.nodes[x].parent;
        let p = self.nodes[x].parent;
        if p == NIL {
            self.root = y;
        } else if self.nodes[p].left == x {
            self.nodes[p].left = y;
        } else {
            self.nodes[p].right = y;
        }
        self.nodes[y].left = x;
        self.nodes[x].parent = y;
    }

    fn rotate_right(&mut self, x: usize) {
        let y = self.nodes[x].left;
        debug_assert_ne!(y, NIL);
        self.nodes[x].left = self.nodes[y].right;
        if self.nodes[y].right != NIL {
            let r = self.nodes[y].right;
            self.nodes[r].parent = x;
        }
        self.nodes[y].parent = self.nodes[x].parent;
        let p = self.nodes[x].parent;
        if p == NIL {
            self.root = y;
        } else if self.nodes[p].right == x {
            self.nodes[p].right = y;
        } else {
            self.nodes[p].left = y;
        }
        self.nodes[y].right = x;
        self.nodes[x].parent = y;
    }

    fn insert_fixup(&mut self, mut z: usize) {
        while self.color(self.nodes[z].parent) == Color::Red {
            let p = self.nodes[z].parent;
            let g = self.nodes[p].parent;
            if p == self.nodes[g].left {
                let u = self.nodes[g].right;
                if self.color(u) == Color::Red {
                    self.nodes[p].color = Color::Black;
                    self.nodes[u].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    z = g;
                } else {
                    if z == self.nodes[p].right {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.rotate_right(g);
                }
            } else {
                let u = self.nodes[g].left;
                if self.color(u) == Color::Red {
                    self.nodes[p].color = Color::Black;
                    self.nodes[u].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    z = g;
                } else {
                    if z == self.nodes[p].left {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.rotate_left(g);
                }
            }
        }
        let r = self.root;
        self.nodes[r].color = Color::Black;
    }

    fn minimum(&self, mut x: usize) -> usize {
        while self.nodes[x].left != NIL {
            x = self.nodes[x].left;
        }
        x
    }

    fn transplant(&mut self, u: usize, v: usize) {
        let p = self.nodes[u].parent;
        if p == NIL {
            self.root = v;
        } else if u == self.nodes[p].left {
            self.nodes[p].left = v;
        } else {
            self.nodes[p].right = v;
        }
        if v != NIL {
            self.nodes[v].parent = p;
        }
    }

    /// Removes a node, returning its value.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn remove(&mut self, id: NodeId) -> V {
        assert!(self.is_live(id.0), "stale node id");
        let z = id.0;
        let fix_parent; // Parent of the (possibly NIL) node that moved into place.
        let x;
        let mut removed_color = self.nodes[z].color;
        if self.nodes[z].left == NIL {
            x = self.nodes[z].right;
            fix_parent = self.nodes[z].parent;
            self.transplant(z, x);
        } else if self.nodes[z].right == NIL {
            x = self.nodes[z].left;
            fix_parent = self.nodes[z].parent;
            self.transplant(z, x);
        } else {
            let y = self.minimum(self.nodes[z].right);
            removed_color = self.nodes[y].color;
            x = self.nodes[y].right;
            if self.nodes[y].parent == z {
                fix_parent = y;
            } else {
                fix_parent = self.nodes[y].parent;
                self.transplant(y, x);
                self.nodes[y].right = self.nodes[z].right;
                let r = self.nodes[y].right;
                self.nodes[r].parent = y;
            }
            self.transplant(z, y);
            self.nodes[y].left = self.nodes[z].left;
            let l = self.nodes[y].left;
            self.nodes[l].parent = y;
            self.nodes[y].color = self.nodes[z].color;
        }
        if removed_color == Color::Black {
            self.delete_fixup(x, fix_parent);
        }
        self.len -= 1;
        self.free.push(z);
        match self.nodes[z].value.take() {
            Some(v) => v,
            // Callers hold a NodeId to a live node; a live node's value
            // slot is always populated.
            None => unreachable!("live node has a value"),
        }
    }

    fn delete_fixup(&mut self, mut x: usize, mut parent: usize) {
        while x != self.root && self.color(x) == Color::Black {
            if parent == NIL {
                break;
            }
            if x == self.nodes[parent].left {
                let mut w = self.nodes[parent].right;
                if self.color(w) == Color::Red {
                    self.nodes[w].color = Color::Black;
                    self.nodes[parent].color = Color::Red;
                    self.rotate_left(parent);
                    w = self.nodes[parent].right;
                }
                if self.color(self.nodes[w].left) == Color::Black
                    && self.color(self.nodes[w].right) == Color::Black
                {
                    self.nodes[w].color = Color::Red;
                    x = parent;
                    parent = self.nodes[x].parent;
                } else {
                    if self.color(self.nodes[w].right) == Color::Black {
                        let wl = self.nodes[w].left;
                        if wl != NIL {
                            self.nodes[wl].color = Color::Black;
                        }
                        self.nodes[w].color = Color::Red;
                        self.rotate_right(w);
                        w = self.nodes[parent].right;
                    }
                    self.nodes[w].color = self.nodes[parent].color;
                    self.nodes[parent].color = Color::Black;
                    let wr = self.nodes[w].right;
                    if wr != NIL {
                        self.nodes[wr].color = Color::Black;
                    }
                    self.rotate_left(parent);
                    x = self.root;
                    parent = NIL;
                }
            } else {
                let mut w = self.nodes[parent].left;
                if self.color(w) == Color::Red {
                    self.nodes[w].color = Color::Black;
                    self.nodes[parent].color = Color::Red;
                    self.rotate_right(parent);
                    w = self.nodes[parent].left;
                }
                if self.color(self.nodes[w].right) == Color::Black
                    && self.color(self.nodes[w].left) == Color::Black
                {
                    self.nodes[w].color = Color::Red;
                    x = parent;
                    parent = self.nodes[x].parent;
                } else {
                    if self.color(self.nodes[w].left) == Color::Black {
                        let wr = self.nodes[w].right;
                        if wr != NIL {
                            self.nodes[wr].color = Color::Black;
                        }
                        self.nodes[w].color = Color::Red;
                        self.rotate_left(w);
                        w = self.nodes[parent].left;
                    }
                    self.nodes[w].color = self.nodes[parent].color;
                    self.nodes[parent].color = Color::Black;
                    let wl = self.nodes[w].left;
                    if wl != NIL {
                        self.nodes[wl].color = Color::Black;
                    }
                    self.rotate_right(parent);
                    x = self.root;
                    parent = NIL;
                }
            }
        }
        if x != NIL {
            self.nodes[x].color = Color::Black;
        }
    }

    /// Ids of all live nodes (unordered).
    pub fn ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.is_live(i))
            .map(NodeId)
            .collect()
    }

    /// Serializes the arena slot-for-slot — node indices, colors, and the
    /// free list verbatim — so [`Self::load_with`] reproduces identical
    /// [`NodeId`]s and engine-side reverse maps survive a restore.
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
            w.usize(n.parent);
            w.u8(match n.color {
                Color::Red => 0,
                Color::Black => 1,
            });
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
        // A node takes at least 34 bytes: frame, three links, color and
        // the value flag.
        let count = r.len_prefix(34)?;
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let frame = FrameId(r.u64()?);
            let left = r.usize()?;
            let right = r.usize()?;
            let parent = r.usize()?;
            let color = match r.u8()? {
                0 => Color::Red,
                1 => Color::Black,
                _ => return Err(vusion_snapshot::SnapshotError::Corrupt("bad node color")),
            };
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
                parent,
                color,
            });
        }
        let root = r.usize()?;
        let free_count = r.len_prefix(8)?;
        let mut free = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            free.push(r.usize()?);
        }
        let len = r.usize()?;
        let tree = Self {
            nodes,
            root,
            free,
            len,
        };
        tree.check_structure()
            .map_err(vusion_snapshot::SnapshotError::Corrupt)?;
        Ok(tree)
    }

    /// Asserts what [`Self::load_with`] checks (test/debug helper): sound
    /// links, length and free list, and the red-black invariants — root is
    /// black, no red node has a red child, and every root-to-leaf path has
    /// the same black height. Returns the black height.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) -> usize {
        match self.check_structure() {
            Ok(height) => height,
            Err(why) => panic!("{why}"),
        }
    }

    /// Checks everything the arena operations index through, so a tree
    /// read from a snapshot cannot make a later search or fix-up panic:
    /// the free list names distinct dead slots; `len` counts the live
    /// ones; a walk from the root reaches each live node exactly once
    /// through links that name live slots and whose parent links point
    /// back; and the coloring is red-black (black root, no red node with
    /// a red child, one black height). Returns the black height, counting
    /// the NIL leaves.
    fn check_structure(&self) -> Result<usize, &'static str> {
        let mut seen = vec![false; self.nodes.len()];
        for &slot in &self.free {
            if slot >= self.nodes.len() || self.is_live(slot) || seen[slot] {
                return Err("free list names a live, missing or repeated slot");
            }
            seen[slot] = true;
        }
        let live = (0..self.nodes.len()).filter(|&i| self.is_live(i)).count();
        if live != self.len {
            return Err("length differs from the live node count");
        }
        if self.root == NIL {
            return if live == 0 {
                Ok(0)
            } else {
                Err("live nodes unreachable from an empty root")
            };
        }
        if !self.is_live(self.root) || self.nodes[self.root].parent != NIL {
            return Err("root is not a live node without a parent");
        }
        if self.nodes[self.root].color == Color::Red {
            return Err("root must be black");
        }
        seen[self.root] = true;
        let mut reached = 0;
        let mut black_height = None;
        // (slot, black nodes above it)
        let mut stack = vec![(self.root, 0usize)];
        while let Some((idx, above)) = stack.pop() {
            reached += 1;
            let n = &self.nodes[idx];
            let here = above + usize::from(n.color == Color::Black);
            for child in [n.left, n.right] {
                if child == NIL {
                    if *black_height.get_or_insert(here + 1) != here + 1 {
                        return Err("unequal black heights");
                    }
                    continue;
                }
                if !self.is_live(child) || self.nodes[child].parent != idx || seen[child] {
                    return Err("child link names a dead, foreign or repeated slot");
                }
                if n.color == Color::Red && self.nodes[child].color == Color::Red {
                    return Err("red node with a red child");
                }
                seen[child] = true;
                stack.push((child, here));
            }
        }
        if reached != self.len {
            return Err("walk from the root misses live nodes");
        }
        Ok(black_height.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compare frames by their numeric id — a stand-in for content
    /// comparison in structural tests.
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
            let got = ContentRbTree::<u32>::load_with(&mut Reader::new(&bytes), |r| r.u32());
            assert!(matches!(got, Err(SnapshotError::Truncated)));
        }
    }

    /// One arena slot of a hand-written stream: frame, left, right,
    /// parent, black, and the value of a live slot (`None`: a free slot).
    type Slot = (u64, usize, usize, usize, bool, Option<u32>);

    /// The [`ContentRbTree::save_with`] layout, written by hand.
    fn stream(slots: &[Slot], root: usize, free: &[usize], len: usize) -> Vec<u8> {
        let mut w = vusion_snapshot::Writer::new();
        w.usize(slots.len());
        for &(frame, left, right, parent, black, value) in slots {
            w.u64(frame);
            w.usize(left);
            w.usize(right);
            w.usize(parent);
            w.u8(u8::from(black));
            w.bool(value.is_some());
            if let Some(v) = value {
                w.u32(v);
            }
        }
        w.usize(root);
        w.usize(free.len());
        for &slot in free {
            w.usize(slot);
        }
        w.usize(len);
        w.into_bytes()
    }

    fn load(
        slots: &[Slot],
        root: usize,
        free: &[usize],
        len: usize,
    ) -> Result<ContentRbTree<u32>, vusion_snapshot::SnapshotError> {
        let bytes = stream(slots, root, free, len);
        ContentRbTree::load_with(&mut vusion_snapshot::Reader::new(&bytes), |r| r.u32())
    }

    #[test]
    fn crafted_links_are_rejected() {
        // A black root in slot 1 with a red child on each side, and a free
        // slot 3.
        let good: [Slot; 4] = [
            (1, NIL, NIL, 1, false, Some(10)),
            (2, 0, 2, NIL, true, Some(20)),
            (3, NIL, NIL, 1, false, Some(30)),
            (0, NIL, NIL, NIL, true, None),
        ];
        let tree = load(&good, 1, &[3], 3).expect("a well-formed tree loads");
        assert_eq!(tree.assert_invariants(), 2);
        assert_eq!(tree.find(FrameId(3), by_id), Some(NodeId(2)));
        let rejected = |slots: &[Slot], root: usize, free: &[usize], len: usize, what: &str| {
            assert!(
                matches!(
                    load(slots, root, free, len),
                    Err(vusion_snapshot::SnapshotError::Corrupt(_))
                ),
                "{what} must be rejected"
            );
        };
        let with = |slot: usize, edit: fn(&mut Slot)| {
            let mut slots = good;
            edit(&mut slots[slot]);
            slots
        };
        // One node whose left link names slot 999: a `find` for a smaller
        // key would index past the arena.
        rejected(
            &[(5, 999, NIL, NIL, true, Some(1))],
            0,
            &[],
            1,
            "left link 999",
        );
        rejected(&good, 3, &[3], 3, "a free root");
        rejected(&good, 7, &[3], 3, "a root past the arena");
        rejected(&with(1, |s| s.2 = 3), 1, &[3], 3, "a link to a free slot");
        rejected(&with(2, |s| s.3 = 0), 1, &[3], 3, "a parent link elsewhere");
        rejected(&with(1, |s| s.3 = 0), 1, &[3], 3, "a root with a parent");
        rejected(&with(1, |s| s.2 = 0), 1, &[3], 3, "one child on both sides");
        rejected(
            &with(1, |s| s.2 = NIL),
            1,
            &[3],
            3,
            "an unreachable live node",
        );
        rejected(&good, 1, &[1], 3, "a free list naming a live slot");
        rejected(&good, 1, &[3, 3], 3, "a repeated free slot");
        rejected(&good, 1, &[9], 3, "a free slot past the arena");
        rejected(&good, 1, &[3], 2, "a short length");
        rejected(&good, 1, &[3], 4, "a long length");
        rejected(&good, NIL, &[3], 3, "live nodes under an empty root");
        rejected(&with(1, |s| s.4 = false), 1, &[3], 3, "a red root");
        rejected(
            &with(0, |s| s.4 = true),
            1,
            &[3],
            3,
            "unequal black heights",
        );
        let red_chain: [Slot; 3] = [
            (1, 2, NIL, 1, false, Some(10)),
            (2, 0, NIL, NIL, true, Some(20)),
            (0, NIL, NIL, 0, false, Some(5)),
        ];
        rejected(&red_chain, 1, &[], 3, "a red node with a red child");
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let mut t = ContentRbTree::new();
        let (a, ins) = t.insert(FrameId(5), "five", by_id);
        assert!(ins);
        let (b, ins) = t.insert(FrameId(3), "three", by_id);
        assert!(ins);
        assert_eq!(t.len(), 2);
        assert_eq!(t.find(FrameId(5), by_id), Some(a));
        assert_eq!(t.find(FrameId(3), by_id), Some(b));
        assert_eq!(t.find(FrameId(9), by_id), None);
        assert_eq!(t.remove(a), "five");
        assert_eq!(t.find(FrameId(5), by_id), None);
        assert_eq!(t.len(), 1);
        t.assert_invariants();
    }

    #[test]
    fn duplicate_insert_returns_existing() {
        let mut t = ContentRbTree::new();
        let (a, _) = t.insert(FrameId(5), 1u32, by_id);
        let (b, inserted) = t.insert(FrameId(5), 2u32, by_id);
        assert_eq!(a, b);
        assert!(!inserted);
        assert_eq!(*t.value(a), 1, "original value preserved");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ascending_insert_stays_balanced() {
        let mut t = ContentRbTree::new();
        for i in 0..1000u64 {
            t.insert(FrameId(i), i, by_id);
            if i % 100 == 0 {
                t.assert_invariants();
            }
        }
        let bh = t.assert_invariants();
        // A balanced RB tree of 1000 nodes has black height ≤ ~1+log2(1001).
        assert!(bh <= 11, "black height {bh} suggests imbalance");
        for i in 0..1000u64 {
            assert!(t.find(FrameId(i), by_id).is_some());
        }
    }

    #[test]
    fn interleaved_insert_delete_keeps_invariants() {
        let mut t = ContentRbTree::new();
        let mut ids = Vec::new();
        // Pseudo-random but deterministic sequence.
        let mut x = 12345u64;
        for step in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x >> 40;
            if step % 3 != 2 {
                let (id, inserted) = t.insert(FrameId(key), key, by_id);
                if inserted {
                    ids.push((id, key));
                }
            } else if !ids.is_empty() {
                let pos = (x as usize) % ids.len();
                let (id, key) = ids.swap_remove(pos);
                assert_eq!(t.remove(id), key);
            }
            if step % 171 == 0 {
                t.assert_invariants();
            }
        }
        t.assert_invariants();
        // Everything still present is findable.
        for &(id, key) in &ids {
            assert_eq!(t.find(FrameId(key), by_id), Some(id));
        }
    }

    #[test]
    fn remove_all_empties_tree() {
        let mut t = ContentRbTree::new();
        let ids: Vec<_> = (0..100u64)
            .map(|i| t.insert(FrameId(i), (), by_id).0)
            .collect();
        for id in ids {
            t.remove(id);
            t.assert_invariants();
        }
        assert!(t.is_empty());
        assert_eq!(t.find(FrameId(50), by_id), None);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut t = ContentRbTree::new();
        let (a, _) = t.insert(FrameId(1), (), by_id);
        t.remove(a);
        let (b, _) = t.insert(FrameId(2), (), by_id);
        assert_eq!(a.0, b.0, "freed slot reused");
    }

    #[test]
    fn set_frame_repoints_without_reorder() {
        let mut t = ContentRbTree::new();
        let (id, _) = t.insert(FrameId(5), (), by_id);
        // Content-equal relocation: the engines guarantee the new frame
        // compares equal; for the structural test we simply don't search.
        t.set_frame(id, FrameId(500));
        assert_eq!(t.frame(id), FrameId(500));
        t.assert_invariants();
    }

    #[test]
    fn ids_lists_live_nodes() {
        let mut t = ContentRbTree::new();
        let (a, _) = t.insert(FrameId(1), (), by_id);
        let (b, _) = t.insert(FrameId(2), (), by_id);
        t.remove(a);
        let ids = t.ids();
        assert_eq!(ids, vec![b]);
    }

    #[test]
    #[should_panic(expected = "stale node id")]
    fn stale_id_panics() {
        let mut t = ContentRbTree::new();
        let (a, _) = t.insert(FrameId(1), (), by_id);
        t.remove(a);
        let _ = t.value(a);
    }

    #[test]
    fn content_comparator_with_memory() {
        // End-to-end with real page contents.
        use vusion_mem::{PhysAddr, PhysMemory};
        let mut mem = PhysMemory::new(4);
        mem.write_byte(PhysAddr(0), 2); // Frame 0 content "2..."
        mem.write_byte(PhysAddr(4096), 1); // Frame 1 content "1..."
        mem.write_byte(PhysAddr(2 * 4096), 2); // Frame 2 equals frame 0.
        let mut t = ContentRbTree::new();
        let cmp = |a: FrameId, b: FrameId| mem.compare_pages(a, b);
        let (n0, ins0) = t.insert(FrameId(0), "first", cmp);
        assert!(ins0);
        let (_n1, ins1) = t.insert(FrameId(1), "second", cmp);
        assert!(ins1);
        let (n2, ins2) = t.insert(FrameId(2), "dup", cmp);
        assert!(!ins2, "equal content must match");
        assert_eq!(n0, n2);
        assert_eq!(t.find(FrameId(2), cmp), Some(n0));
    }
}
