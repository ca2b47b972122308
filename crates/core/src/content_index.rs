//! One content tree together with the two structures that mirror it: the
//! map from each tree frame to its node, and the hash filter over the tree
//! pages.
//!
//! KSM's stable and unstable trees, WPF's tree and VUsion's tree are each
//! one [`ContentIndex`], and every insert, remove and frame move goes
//! through it, so the three structures change together or not at all.
//!
//! The hash filter is a wall-clock optimization only. [`ContentIndex::find`]
//! skips the O(log n) full-page-compare descent when no tree page bears the
//! probe's hash (equal content implies equal hash); a hash collision costs
//! one authoritative descent, never a wrong match. Tree pages are not
//! immutable — guest writes hit unstable-tree pages and Rowhammer hits
//! anything — so each frame's entry records the write generation it was
//! hashed at, and [`ContentIndex::refresh`] re-hashes the frames whose
//! generation moved.
//!
//! `hash_page` runs only on an actual insert, a frame move, a refresh of a
//! stale frame and the probe of a search. Where it runs decides which
//! frames the hash memo holds warm, and with it how many frames the next
//! scan pre-hash counts and charges.

use std::collections::BTreeMap;

use vusion_mem::{FrameId, PhysMemory};
use vusion_snapshot::{Reader, SnapshotError, Writer};

use crate::rbtree::{ContentRbTree, NodeId};

/// A content tree, its frame → node map and its hash filter.
pub(crate) struct ContentIndex<V> {
    tree: ContentRbTree<V>,
    /// Tree frame → (its node, its hash, its write generation when hashed).
    frames: BTreeMap<FrameId, (NodeId, u64, u64)>,
    /// Hash → number of tree pages bearing it.
    hashes: BTreeMap<u64, u32>,
}

impl<V> Default for ContentIndex<V> {
    fn default() -> Self {
        Self {
            tree: ContentRbTree::new(),
            frames: BTreeMap::new(),
            hashes: BTreeMap::new(),
        }
    }
}

impl<V> ContentIndex<V> {
    /// The node whose page content equals `probe`'s: the hash filter
    /// first, then the authoritative descent.
    pub(crate) fn find(&self, mem: &PhysMemory, probe: FrameId) -> Option<NodeId> {
        if !self.hashes.contains_key(&mem.hash_page(probe)) {
            return None;
        }
        self.tree.find(probe, |a, b| mem.compare_pages(a, b))
    }

    /// The node holding `frame`, if any.
    pub(crate) fn node_of(&self, frame: FrameId) -> Option<NodeId> {
        self.frames.get(&frame).map(|&(node, _, _)| node)
    }

    /// Whether a node holds `frame`.
    pub(crate) fn contains_frame(&self, frame: FrameId) -> bool {
        self.frames.contains_key(&frame)
    }

    /// Whether `node` names a live node.
    pub(crate) fn contains_node(&self, node: NodeId) -> bool {
        self.tree.contains(node)
    }

    /// Inserts a node for `frame` unless an equal-content node exists.
    /// Returns `(id, true)` on insert or `(existing, false)` on a match;
    /// only an insert touches the frame map and the hash filter.
    pub(crate) fn insert(&mut self, mem: &PhysMemory, frame: FrameId, value: V) -> (NodeId, bool) {
        let (node, inserted) = self
            .tree
            .insert(frame, value, |a, b| mem.compare_pages(a, b));
        if inserted {
            self.track(mem, frame, node);
        }
        (node, inserted)
    }

    /// Removes a node, returning its value. Panics on a stale id.
    pub(crate) fn remove(&mut self, node: NodeId) -> V {
        self.untrack(self.tree.frame(node));
        self.tree.remove(node)
    }

    /// Repoints `node` at `new`, a frame **with identical content** (the
    /// VUsion re-randomization of backing frames, §7.1 decision iii).
    /// `copy_page` carried the hash over, so indexing `new` hits the memo.
    /// Panics on a stale id.
    pub(crate) fn set_frame(&mut self, mem: &PhysMemory, node: NodeId, new: FrameId) {
        self.untrack(self.tree.frame(node));
        self.tree.set_frame(node, new);
        self.track(mem, new, node);
    }

    /// The frame a node references. Panics on a stale id.
    pub(crate) fn frame(&self, node: NodeId) -> FrameId {
        self.tree.frame(node)
    }

    /// The value stored at a node. Panics on a stale id.
    pub(crate) fn value(&self, node: NodeId) -> &V {
        self.tree.value(node)
    }

    /// The value stored at a node, mutably. Panics on a stale id.
    pub(crate) fn value_mut(&mut self, node: NodeId) -> &mut V {
        self.tree.value_mut(node)
    }

    /// Number of tree pages.
    pub(crate) fn len(&self) -> usize {
        self.tree.len()
    }

    /// Ids of all live nodes (unordered).
    pub(crate) fn ids(&self) -> Vec<NodeId> {
        self.tree.ids()
    }

    /// Removes every node.
    pub(crate) fn clear(&mut self) {
        self.tree.clear();
        self.frames.clear();
        self.hashes.clear();
    }

    /// Tree frames whose write generation moved since they were hashed:
    /// their content changed (or they were freed and rewritten).
    pub(crate) fn stale_frames(&self, mem: &PhysMemory) -> Vec<FrameId> {
        self.frames
            .iter()
            .filter(|(f, &(_, _, gen))| mem.info(**f).write_gen != gen)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Re-hashes the stale frames so the filter describes current content.
    /// Returns how many there were.
    pub(crate) fn refresh(&mut self, mem: &PhysMemory) -> usize {
        let stale = self.stale_frames(mem);
        for &frame in &stale {
            if let Some(node) = self.node_of(frame) {
                self.untrack(frame);
                self.track(mem, frame, node);
            }
        }
        stale.len()
    }

    fn track(&mut self, mem: &PhysMemory, frame: FrameId, node: NodeId) {
        let hash = mem.hash_page(frame);
        let gen = mem.info(frame).write_gen;
        let held = self.frames.insert(frame, (node, hash, gen));
        debug_assert!(held.is_none(), "two live nodes hold one frame");
        *self.hashes.entry(hash).or_insert(0) += 1;
    }

    fn untrack(&mut self, frame: FrameId) {
        let Some((_, hash, _)) = self.frames.remove(&frame) else {
            return;
        };
        if let Some(c) = self.hashes.get_mut(&hash) {
            *c -= 1;
            if *c == 0 {
                self.hashes.remove(&hash);
            }
        }
    }

    /// Writes the tree slot for slot, then the `(frame, hash, write
    /// generation)` entries sorted by frame. The frame → node map and the
    /// hash multiset are derived from those.
    pub(crate) fn save_with(&self, w: &mut Writer, save_value: impl FnMut(&V, &mut Writer)) {
        self.tree.save_with(w, save_value);
        w.usize(self.frames.len());
        for (frame, &(_, hash, gen)) in &self.frames {
            w.u64(frame.0);
            w.u64(hash);
            w.u64(gen);
        }
    }

    /// Rebuilds an index written by [`Self::save_with`]. The node ids come
    /// from the tree; the hash entries must name exactly the frames of the
    /// live nodes, and no frame may be held by two of them.
    pub(crate) fn load_with(
        r: &mut Reader<'_>,
        load_value: impl FnMut(&mut Reader<'_>) -> Result<V, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let tree = ContentRbTree::load_with(r, load_value)?;
        let mut nodes = BTreeMap::new();
        for node in tree.ids() {
            if nodes.insert(tree.frame(node), node).is_some() {
                return Err(SnapshotError::Corrupt("two tree nodes hold one frame"));
            }
        }
        // An entry is a frame, a hash and a write generation: 24 bytes.
        let count = r.len_prefix(24)?;
        let mut index = Self {
            tree,
            frames: BTreeMap::new(),
            hashes: BTreeMap::new(),
        };
        for _ in 0..count {
            let frame = FrameId(r.u64()?);
            let hash = r.u64()?;
            let gen = r.u64()?;
            let Some(node) = nodes.remove(&frame) else {
                return Err(SnapshotError::Corrupt(
                    "hash entry for a frame no tree node holds",
                ));
            };
            index.frames.insert(frame, (node, hash, gen));
            *index.hashes.entry(hash).or_insert(0) += 1;
        }
        if !nodes.is_empty() {
            return Err(SnapshotError::Corrupt("tree frame without a hash entry"));
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use vusion_mem::{content_hash, PhysAddr, PAGE_SIZE};
    use vusion_rng::rngs::StdRng;
    use vusion_rng::{RngExt, SeedableRng};

    use super::*;

    /// Whether the hash filter alone lets a search for `probe` descend.
    fn may_contain<V>(ix: &ContentIndex<V>, mem: &PhysMemory, probe: FrameId) -> bool {
        ix.hashes.contains_key(&mem.hash_page(probe))
    }

    fn resave(ix: &ContentIndex<u64>) -> (Vec<u8>, ContentIndex<u64>, Vec<u8>) {
        let mut w = Writer::new();
        ix.save_with(&mut w, |v, w| w.u64(*v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let loaded = ContentIndex::load_with(&mut r, |r| r.u64()).expect("load");
        r.finish().expect("load reads every byte");
        let mut w = Writer::new();
        loaded.save_with(&mut w, |v, w| w.u64(*v));
        (bytes, loaded, w.into_bytes())
    }

    #[test]
    fn hash_filter_tracks_membership() {
        let mut mem = PhysMemory::new(4);
        mem.write_byte(PhysAddr(0), 1);
        mem.write_byte(PhysAddr(4096), 2);
        mem.write_byte(PhysAddr(2 * 4096), 1); // same content as frame 0
        let mut ix = ContentIndex::default();
        let (node, inserted) = ix.insert(&mem, FrameId(0), ());
        assert!(inserted);
        assert!(
            may_contain(&ix, &mem, FrameId(2)),
            "equal content must pass"
        );
        assert_eq!(ix.find(&mem, FrameId(2)), Some(node));
        assert!(
            !may_contain(&ix, &mem, FrameId(1)),
            "absent hash is definitive"
        );
        assert_eq!(ix.find(&mem, FrameId(1)), None);
        ix.remove(node);
        assert!(!may_contain(&ix, &mem, FrameId(2)));
        assert_eq!((ix.node_of(FrameId(0)), ix.len()), (None, 0));
    }

    #[test]
    fn refresh_catches_inplace_change() {
        let mut mem = PhysMemory::new(2);
        mem.write_byte(PhysAddr(0), 1);
        let mut ix = ContentIndex::default();
        ix.insert(&mem, FrameId(0), ());
        // The tree page changes in place (a Rowhammer flip): the stale
        // hash must not make the filter claim the old content is present.
        mem.flip_bit(PhysAddr(0), 0);
        mem.write_byte(PhysAddr(4096), 1); // probe with the *old* content
        assert_eq!(ix.stale_frames(&mem), vec![FrameId(0)]);
        assert_eq!(ix.refresh(&mem), 1);
        assert!(ix.stale_frames(&mem).is_empty());
        assert!(
            !may_contain(&ix, &mem, FrameId(1)),
            "refresh must drop the stale hash"
        );
        assert!(
            may_contain(&ix, &mem, FrameId(0)),
            "the new content is indexed after refresh"
        );
    }

    #[test]
    fn load_rejects_entries_that_are_not_the_live_frames() {
        // A two-node tree whose nodes hold `frames`, then `entries`.
        let stream = |frames: [u64; 2], entries: &[u64]| {
            let mut tree = ContentRbTree::new();
            for f in frames {
                tree.insert(FrameId(f), (), |_, _| std::cmp::Ordering::Less);
            }
            let mut w = Writer::new();
            tree.save_with(&mut w, |(), _| {});
            w.usize(entries.len());
            for &f in entries {
                w.u64(f);
                w.u64(f ^ 0xabc);
                w.u64(1);
            }
            w.into_bytes()
        };
        let load = |bytes: Vec<u8>| ContentIndex::load_with(&mut Reader::new(&bytes), |_| Ok(()));
        let ix = load(stream([5, 9], &[5, 9])).expect("entries for the live frames load");
        assert_eq!(ix.node_of(FrameId(9)), Some(NodeId(1)));
        for (frames, entries, what) in [
            ([5, 9], &[5][..], "a live frame without an entry"),
            ([5, 9], &[5, 9, 11], "an entry for a frame no node holds"),
            ([5, 9], &[5, 5, 9], "a repeated entry"),
            ([5, 5], &[5], "two live nodes holding one frame"),
        ] {
            assert!(
                matches!(
                    load(stream(frames, entries)),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn duplicate_hashes_are_counted_not_clobbered() {
        let mut mem = PhysMemory::new(3);
        mem.write_byte(PhysAddr(0), 7);
        mem.write_byte(PhysAddr(4096), 8);
        mem.write_byte(PhysAddr(2 * 4096), 7);
        let mut ix = ContentIndex::default();
        let (a, _) = ix.insert(&mem, FrameId(0), ());
        let (b, _) = ix.insert(&mem, FrameId(1), ());
        // A flip turns one tree page into a copy of the other: after the
        // refresh two tree pages bear one hash.
        mem.write_byte(PhysAddr(4096), 7);
        ix.refresh(&mem);
        ix.remove(a);
        assert!(
            may_contain(&ix, &mem, FrameId(2)),
            "one bearer removed, one remains"
        );
        ix.remove(b);
        assert!(!may_contain(&ix, &mem, FrameId(2)));
    }

    /// Pages in the model test: a key in the first word and a tag in the
    /// last. Tree pages keep distinct keys, so a tag write never moves a
    /// page out of its place in the content order.
    const FRAMES: u64 = 40;
    const KEYS: u64 = 12;
    const TAGS: u64 = 3;

    fn write_key(mem: &mut PhysMemory, f: FrameId, key: u64, tag: u64) {
        mem.write_u64(PhysAddr(f.0 * PAGE_SIZE), key);
        write_tag(mem, f, tag);
    }

    fn write_tag(mem: &mut PhysMemory, f: FrameId, tag: u64) {
        mem.write_u64(PhysAddr(f.0 * PAGE_SIZE + PAGE_SIZE - 8), tag);
    }

    fn key(mem: &PhysMemory, f: FrameId) -> [u8; 8] {
        let mut k = [0; 8];
        k.copy_from_slice(&mem.page(f)[..8]);
        k
    }

    /// The index against a model (frame → node and value) through seeded
    /// inserts (duplicates included), removes, frame moves, in-place
    /// writes followed by a refresh or an eviction, clears and
    /// save → load → continue. After every step: `find`, `node_of` and
    /// `stale_frames` agree with the model, the frame map and the hash
    /// multiset hold exactly the live nodes, and save → load → save is
    /// byte-identical.
    #[test]
    fn matches_model() {
        // How often each operation changed something, over all seeds.
        let mut met = [0usize; 8];
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1de7);
            let mut mem = PhysMemory::new(FRAMES as usize);
            for f in 0..FRAMES {
                let (k, t) = (rng.random_range(0..KEYS), rng.random_range(0..TAGS));
                write_key(&mut mem, FrameId(f), k, t);
            }
            let mut ix: ContentIndex<u64> = ContentIndex::default();
            let mut model: BTreeMap<FrameId, (NodeId, u64)> = BTreeMap::new();
            let mut next_value = 0u64;
            for step in 0..200 {
                let f = FrameId(rng.random_range(0..FRAMES));
                match rng.random_range(0..20u8) {
                    0..=6 => {
                        // Insert, unless a tree page shares the key but not
                        // the content (that would break the order tags
                        // rely on).
                        let twin = model.keys().find(|&&t| mem.pages_equal(t, f)).copied();
                        let clash = model.keys().any(|&t| key(&mem, t) == key(&mem, f));
                        if twin.is_some() || !clash {
                            next_value += 1;
                            let (node, inserted) = ix.insert(&mem, f, next_value);
                            match twin {
                                Some(t) => {
                                    met[0] += 1;
                                    assert!(!inserted, "seed {seed} step {step}");
                                    assert_eq!(node, model[&t].0, "seed {seed} step {step}");
                                }
                                None => {
                                    met[1] += 1;
                                    assert!(inserted, "seed {seed} step {step}");
                                    model.insert(f, (node, next_value));
                                }
                            }
                        }
                    }
                    7..=9 => {
                        if let Some((&t, &(node, value))) =
                            model.iter().nth(f.0 as usize % model.len().max(1))
                        {
                            met[2] += 1;
                            assert_eq!(ix.remove(node), value, "seed {seed} step {step}");
                            model.remove(&t);
                        }
                    }
                    10..=11 => {
                        // Move a node to a free frame holding a verbatim copy.
                        let from = model.keys().nth(f.0 as usize % model.len().max(1)).copied();
                        if let (Some(from), false) = (from, model.contains_key(&f)) {
                            met[3] += 1;
                            let (node, value) = model[&from];
                            mem.copy_page(from, f);
                            ix.set_frame(&mem, node, f);
                            model.remove(&from);
                            model.insert(f, (node, value));
                        }
                    }
                    12..=14 => {
                        // A write to a page outside the tree.
                        if !model.contains_key(&f) {
                            let (k, t) = (rng.random_range(0..KEYS), rng.random_range(0..TAGS));
                            write_key(&mut mem, f, k, t);
                        }
                    }
                    15..=17 => {
                        // In-place tag writes to tree pages, then either a
                        // refresh (stable tree) or an eviction (unstable).
                        let written: BTreeSet<FrameId> = model
                            .keys()
                            .filter(|_| rng.random_bool(0.3))
                            .copied()
                            .collect();
                        for &t in &written {
                            write_tag(&mut mem, t, rng.random_range(0..TAGS));
                        }
                        let stale: BTreeSet<FrameId> = ix.stale_frames(&mem).into_iter().collect();
                        assert_eq!(stale, written, "seed {seed} step {step}");
                        if rng.random_bool(0.5) {
                            met[4] += usize::from(!written.is_empty());
                            assert_eq!(ix.refresh(&mem), written.len());
                        } else {
                            met[5] += usize::from(!written.is_empty());
                            for t in written {
                                let node = ix.node_of(t).expect("stale frames are tree frames");
                                assert_eq!(ix.remove(node), model[&t].1);
                                model.remove(&t);
                            }
                        }
                    }
                    18 => {
                        if rng.random_bool(0.2) {
                            met[6] += 1;
                            ix.clear();
                            model.clear();
                        }
                    }
                    _ => {
                        met[7] += 1;
                        let (first, loaded, again) = resave(&ix);
                        assert_eq!(first, again, "seed {seed} step {step}");
                        ix = loaded;
                    }
                }
                // The model's view of every frame.
                for probe in (0..FRAMES).map(FrameId) {
                    let want = model
                        .iter()
                        .find(|&(&t, _)| mem.pages_equal(t, probe))
                        .map(|(_, &(node, _))| node);
                    assert_eq!(
                        ix.find(&mem, probe),
                        want,
                        "seed {seed} step {step} find {probe:?}"
                    );
                    assert_eq!(
                        ix.node_of(probe),
                        model.get(&probe).map(|&(node, _)| node),
                        "seed {seed} step {step}"
                    );
                }
                assert!(ix.stale_frames(&mem).is_empty(), "seed {seed} step {step}");
                // The frame map and the hash multiset hold exactly the
                // live nodes, hashed at their current content.
                assert_eq!(ix.len(), model.len(), "seed {seed} step {step}");
                let mut hashes: BTreeMap<u64, u32> = BTreeMap::new();
                for (&t, &(node, value)) in &model {
                    let hash = content_hash(mem.page(t));
                    assert_eq!(
                        ix.frames.get(&t),
                        Some(&(node, hash, mem.info(t).write_gen)),
                        "seed {seed} step {step}"
                    );
                    assert_eq!((ix.frame(node), *ix.value(node)), (t, value));
                    *hashes.entry(hash).or_insert(0) += 1;
                }
                assert_eq!(ix.frames.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(ix.hashes, hashes, "seed {seed} step {step}");
                let (first, _, again) = resave(&ix);
                assert_eq!(first, again, "seed {seed} step {step}");
                ix.tree.assert_invariants();
            }
        }
        assert!(met.iter().all(|&n| n > 0), "every operation ran: {met:?}");
    }
}
