//! A content index: the pages of one of the paper's content trees, found by
//! their content.
//!
//! KSM's stable and unstable trees (§2.1), WPF's tree (§2.2) and VUsion's
//! single tree (§7.1) are each one [`ContentIndex`], and every insert,
//! remove and frame move goes through it. The paper's trees are ordered by
//! page content, but nothing it measures depends on how a duplicate is
//! found, only on which pages merge: exact content equality. So the index
//! keeps its nodes in an arena of slots and finds them through hash
//! buckets. [`ContentIndex::find`] hashes the probe and byte-compares the
//! members of that hash's bucket (usually one). Equal content implies an
//! equal hash, so the bucket holds every candidate, and the byte compare
//! rules out collisions: the answer is exact.
//!
//! Indexed pages are not immutable — guest writes hit unstable-tree pages
//! and Rowhammer hits anything — so each frame's entry records the write
//! generation it was hashed at, and [`ContentIndex::refresh`] moves the
//! frames whose generation moved to the bucket of their new content. After
//! a refresh every page is found by its current bytes.
//!
//! A walk that found every entry fresh stamps the index with the memory
//! epoch ([`PhysMemory::epoch`]). No write can happen without moving the
//! epoch, and every entry the index adds records its frame's current
//! generation, so while the epoch holds the stamp the next walk would find
//! nothing stale: [`ContentIndex::refresh`] and
//! [`ContentIndex::evict_stale`] return at once. Debug builds still walk
//! and check that the walk agrees.
//!
//! `hash_page` runs only at the probe of a search (an insert probes first)
//! and when a frame is indexed: an insert that inserts (a memo hit after
//! its probe), a frame move and a refresh of a stale frame. Where it runs
//! decides which frames the hash memo holds warm, and with it how many
//! frames the next scan pre-hash counts and charges.

use std::collections::{BTreeMap, BTreeSet};

use vusion_mem::{FrameId, PhysMemory};
use vusion_snapshot::{Reader, SnapshotError, Writer};

/// Handle to an indexed page: its arena slot. Stable until the node is
/// removed; a freed slot is reused, last freed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct NodeId(pub(crate) usize);

/// Indexed pages, found by content.
pub(crate) struct ContentIndex<V> {
    /// Node arena: each live slot holds its frame and value, `None` marks a
    /// free slot.
    slots: Vec<Option<(FrameId, V)>>,
    /// The free slots; `insert` reuses the last one.
    free: Vec<usize>,
    /// Indexed frame → (its node, its hash, its write generation when
    /// hashed).
    frames: BTreeMap<FrameId, (NodeId, u64, u64)>,
    /// The hash buckets: `(hash, node)` for every node.
    buckets: BTreeSet<(u64, NodeId)>,
    /// The memory epoch at which every entry was last known fresh: derived,
    /// never saved.
    fresh_at: Option<u64>,
}

impl<V> Default for ContentIndex<V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            frames: BTreeMap::new(),
            buckets: BTreeSet::new(),
            fresh_at: None,
        }
    }
}

impl<V> ContentIndex<V> {
    /// The node whose page content equals `probe`'s: the first such member
    /// of the probe's hash bucket, in node order.
    pub(crate) fn find(&self, mem: &PhysMemory, probe: FrameId) -> Option<NodeId> {
        let hash = mem.hash_page(probe);
        self.buckets
            .range((hash, NodeId(0))..=(hash, NodeId(usize::MAX)))
            .map(|&(_, node)| node)
            .find(|&node| mem.pages_equal(self.slot(node).0, probe))
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
        matches!(self.slots.get(node.0), Some(Some(_)))
    }

    /// Inserts a node for `frame` unless an equal-content node exists.
    /// Returns `(id, true)` on insert or `(existing, false)` on a match.
    /// It probes with [`Self::find`], which hashes `frame`: every engine
    /// call site holds that hash in the memo already (a search of `frame`
    /// just ran, or `copy_page` carried the hash over).
    pub(crate) fn insert(&mut self, mem: &PhysMemory, frame: FrameId, value: V) -> (NodeId, bool) {
        if let Some(node) = self.find(mem, frame) {
            return (node, false);
        }
        let node = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some((frame, value));
                NodeId(slot)
            }
            None => {
                self.slots.push(Some((frame, value)));
                NodeId(self.slots.len() - 1)
            }
        };
        self.track(mem, frame, node);
        (node, true)
    }

    /// Removes a node, returning its value.
    ///
    /// # Panics
    ///
    /// Panics on a stale id: an engine bug.
    pub(crate) fn remove(&mut self, node: NodeId) -> V {
        let Some((frame, value)) = self.slots.get_mut(node.0).and_then(Option::take) else {
            panic!("stale node id {node:?}");
        };
        self.untrack(frame);
        self.free.push(node.0);
        value
    }

    /// Repoints `node` at `new`, a frame **with identical content** (the
    /// VUsion re-randomization of backing frames, §7.1 decision iii).
    /// `move_page` carried the hash over, so indexing `new` hits the memo,
    /// and the node keeps its bucket unless the old entry's hash was
    /// stale. Panics on a stale id.
    pub(crate) fn set_frame(&mut self, mem: &PhysMemory, node: NodeId, new: FrameId) {
        let old = std::mem::replace(&mut self.slot_mut(node).0, new);
        let was = self.frames.remove(&old).map(|(_, hash, _)| hash);
        let hash = self.track(mem, new, node);
        if let Some(was) = was.filter(|&was| was != hash) {
            self.buckets.remove(&(was, node));
        }
    }

    /// The frame a node references. Panics on a stale id.
    pub(crate) fn frame(&self, node: NodeId) -> FrameId {
        self.slot(node).0
    }

    /// The value stored at a node, mutably. Panics on a stale id.
    pub(crate) fn value_mut(&mut self, node: NodeId) -> &mut V {
        &mut self.slot_mut(node).1
    }

    /// Number of indexed pages.
    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// Ids of all live nodes, in slot order.
    pub(crate) fn ids(&self) -> Vec<NodeId> {
        (0..self.slots.len())
            .map(NodeId)
            .filter(|&node| self.contains_node(node))
            .collect()
    }

    /// Removes every node.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.frames.clear();
        self.buckets.clear();
        self.fresh_at = None;
    }

    /// Indexed frames whose write generation moved since they were hashed:
    /// their content changed (or they were freed and rewritten). Always
    /// walks the entries.
    fn stale_frames(&self, mem: &PhysMemory) -> Vec<FrameId> {
        self.frames
            .iter()
            .filter(|(f, &(_, _, gen))| mem.write_gen(**f) != gen)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Whether the index is stamped at `mem`'s current epoch, so nothing
    /// in it can be stale. Debug builds check that against the walk.
    pub(crate) fn fresh(&self, mem: &PhysMemory) -> bool {
        let fresh = self.fresh_at == Some(mem.epoch());
        if fresh {
            debug_assert_eq!(
                self.stale_frames(mem),
                Vec::new(),
                "stamped index has stale frames"
            );
        }
        fresh
    }

    /// The stale frames for a caller that re-indexes or removes every one,
    /// which leaves the index fresh at the current epoch, so it is stamped.
    /// None, at once, while the epoch holds the stamp.
    fn take_stale(&mut self, mem: &PhysMemory) -> Vec<FrameId> {
        if self.fresh(mem) {
            return Vec::new();
        }
        self.fresh_at = Some(mem.epoch());
        self.stale_frames(mem)
    }

    /// Re-hashes the stale frames, moving each to the bucket of its current
    /// content. Returns how many there were.
    pub(crate) fn refresh(&mut self, mem: &PhysMemory) -> usize {
        let stale = self.take_stale(mem);
        for &frame in &stale {
            if let Some(node) = self.node_of(frame) {
                self.untrack(frame);
                self.track(mem, frame, node);
            }
        }
        stale.len()
    }

    /// Removes the nodes of the stale frames, returning their values in
    /// frame order.
    pub(crate) fn evict_stale(&mut self, mem: &PhysMemory) -> Vec<V> {
        let mut evicted = Vec::new();
        for frame in self.take_stale(mem) {
            if let Some(node) = self.node_of(frame) {
                evicted.push(self.remove(node));
            }
        }
        evicted
    }

    /// The live slot of `node`.
    ///
    /// # Panics
    ///
    /// Panics on a stale id: an engine bug.
    fn slot(&self, node: NodeId) -> &(FrameId, V) {
        match self.slots.get(node.0) {
            Some(Some(slot)) => slot,
            _ => panic!("stale node id {node:?}"),
        }
    }

    /// The live slot of `node`, mutably.
    ///
    /// # Panics
    ///
    /// Panics on a stale id: an engine bug.
    fn slot_mut(&mut self, node: NodeId) -> &mut (FrameId, V) {
        match self.slots.get_mut(node.0) {
            Some(Some(slot)) => slot,
            _ => panic!("stale node id {node:?}"),
        }
    }

    /// Indexes `frame` as `node`'s page and returns its hash. A bucket the
    /// node is already in is kept as it is.
    fn track(&mut self, mem: &PhysMemory, frame: FrameId, node: NodeId) -> u64 {
        let hash = mem.hash_page(frame);
        let gen = mem.write_gen(frame);
        let held = self.frames.insert(frame, (node, hash, gen));
        debug_assert!(held.is_none(), "two live nodes hold one frame");
        self.buckets.insert((hash, node));
        hash
    }

    fn untrack(&mut self, frame: FrameId) {
        if let Some((node, hash, _)) = self.frames.remove(&frame) {
            self.buckets.remove(&(hash, node));
        }
    }

    /// Writes the arena slot for slot (a live flag, then a live slot's
    /// frame and value), the free list, then the `(frame, hash, write
    /// generation)` entries sorted by frame. The buckets are derived.
    pub(crate) fn save_with(&self, w: &mut Writer, mut save_value: impl FnMut(&V, &mut Writer)) {
        w.usize(self.slots.len());
        for slot in &self.slots {
            w.bool(slot.is_some());
            if let Some((frame, value)) = slot {
                w.u64(frame.0);
                save_value(value, w);
            }
        }
        w.usize(self.free.len());
        for &slot in &self.free {
            w.usize(slot);
        }
        w.usize(self.frames.len());
        for (frame, &(_, hash, gen)) in &self.frames {
            w.u64(frame.0);
            w.u64(hash);
            w.u64(gen);
        }
    }

    /// Rebuilds an index written by [`Self::save_with`], with node ids
    /// unchanged. Frames are read through [`Reader::frame`]. The free list
    /// must name exactly the dead slots, once each; the entries must name
    /// exactly the live frames; and no frame may sit in two slots.
    pub(crate) fn load_with(
        r: &mut Reader<'_>,
        mut load_value: impl FnMut(&mut Reader<'_>) -> Result<V, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        // A slot takes at least its live flag: one byte.
        let count = r.len_prefix(1)?;
        let mut slots = Vec::with_capacity(count);
        let mut nodes = BTreeMap::new();
        for slot in 0..count {
            if !r.bool()? {
                slots.push(None);
                continue;
            }
            let frame = FrameId(r.frame()?);
            if nodes.insert(frame, NodeId(slot)).is_some() {
                return Err(SnapshotError::Corrupt("two index slots hold one frame"));
            }
            slots.push(Some((frame, load_value(r)?)));
        }
        let free_count = r.len_prefix(8)?;
        let free = (0..free_count)
            .map(|_| r.usize())
            .collect::<Result<Vec<_>, _>>()?;
        let mut sorted = free.clone();
        sorted.sort_unstable();
        if !sorted
            .into_iter()
            .eq((0..slots.len()).filter(|&slot| slots[slot].is_none()))
        {
            return Err(SnapshotError::Corrupt(
                "free list is not exactly the dead slots",
            ));
        }
        // An entry is a frame, a hash and a write generation: 24 bytes.
        let entries = r.len_prefix(24)?;
        let mut index = Self {
            slots,
            free,
            frames: BTreeMap::new(),
            buckets: BTreeSet::new(),
            fresh_at: None,
        };
        for _ in 0..entries {
            let frame = FrameId(r.frame()?);
            let hash = r.u64()?;
            let gen = r.u64()?;
            let Some(node) = nodes.remove(&frame) else {
                return Err(SnapshotError::Corrupt(
                    "hash entry for a frame no index slot holds",
                ));
            };
            index.frames.insert(frame, (node, hash, gen));
            index.buckets.insert((hash, node));
        }
        if !nodes.is_empty() {
            return Err(SnapshotError::Corrupt("index frame without a hash entry"));
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

    /// Whether the probe's hash bucket has any member.
    fn bucket_holds<V>(ix: &ContentIndex<V>, mem: &PhysMemory, probe: FrameId) -> bool {
        let hash = mem.hash_page(probe);
        ix.buckets
            .range((hash, NodeId(0))..=(hash, NodeId(usize::MAX)))
            .next()
            .is_some()
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
    fn buckets_track_membership() {
        let mut mem = PhysMemory::new(4);
        mem.write_byte(PhysAddr(0), 1);
        mem.write_byte(PhysAddr(4096), 2);
        mem.write_byte(PhysAddr(2 * 4096), 1); // same content as frame 0
        let mut ix = ContentIndex::default();
        let (node, inserted) = ix.insert(&mem, FrameId(0), ());
        assert!(inserted);
        assert!(
            bucket_holds(&ix, &mem, FrameId(2)),
            "equal content, one bucket"
        );
        assert_eq!(ix.find(&mem, FrameId(2)), Some(node));
        assert_eq!(ix.insert(&mem, FrameId(2), ()), (node, false));
        assert!(!bucket_holds(&ix, &mem, FrameId(1)), "an empty bucket");
        assert_eq!(ix.find(&mem, FrameId(1)), None);
        ix.remove(node);
        assert!(!bucket_holds(&ix, &mem, FrameId(2)));
        assert_eq!((ix.node_of(FrameId(0)), ix.len()), (None, 0));
        assert_eq!(ix.insert(&mem, FrameId(1), ()), (node, true), "slot reused");
    }

    #[test]
    #[should_panic(expected = "stale node id")]
    fn stale_id_panics() {
        let mem = PhysMemory::new(1);
        let mut ix = ContentIndex::default();
        let (node, _) = ix.insert(&mem, FrameId(0), ());
        ix.remove(node);
        let _ = ix.frame(node);
    }

    #[test]
    fn refresh_catches_inplace_change() {
        let mut mem = PhysMemory::new(3);
        mem.write_byte(PhysAddr(0), 1);
        let mut ix = ContentIndex::default();
        let (node, _) = ix.insert(&mem, FrameId(0), ());
        // The indexed page changes in place (a Rowhammer flip): after the
        // refresh it is found by its new content only.
        mem.flip_bit(PhysAddr(0), 0);
        mem.write_byte(PhysAddr(4096), 1); // the *old* content
        mem.copy_page(FrameId(0), FrameId(2)); // the new content
        assert_eq!(ix.stale_frames(&mem), vec![FrameId(0)]);
        assert_eq!(ix.refresh(&mem), 1);
        assert!(ix.stale_frames(&mem).is_empty());
        assert!(
            !bucket_holds(&ix, &mem, FrameId(1)),
            "refresh must empty the old bucket"
        );
        assert_eq!(ix.find(&mem, FrameId(1)), None);
        assert_eq!(ix.find(&mem, FrameId(2)), Some(node));
    }

    #[test]
    fn duplicate_hashes_share_a_bucket() {
        let mut mem = PhysMemory::new(3);
        mem.write_byte(PhysAddr(0), 7);
        mem.write_byte(PhysAddr(4096), 8);
        mem.write_byte(PhysAddr(2 * 4096), 7);
        let mut ix = ContentIndex::default();
        let (a, _) = ix.insert(&mem, FrameId(0), ());
        let (b, _) = ix.insert(&mem, FrameId(1), ());
        // A flip turns one indexed page into a copy of the other: after the
        // refresh two nodes share one bucket, and a search finds the first.
        mem.write_byte(PhysAddr(4096), 7);
        ix.refresh(&mem);
        assert_eq!(ix.find(&mem, FrameId(2)), Some(a));
        ix.remove(a);
        assert_eq!(ix.find(&mem, FrameId(2)), Some(b), "one member remains");
        ix.remove(b);
        assert!(!bucket_holds(&ix, &mem, FrameId(2)));
    }

    /// The [`ContentIndex::save_with`] layout with `()` values, written by
    /// hand: each slot's frame (`None`: a free slot), the free list, then
    /// one entry for each frame of `entries`.
    fn stream(slots: &[Option<u64>], free: &[usize], entries: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(slots.len());
        for slot in slots {
            w.bool(slot.is_some());
            if let Some(frame) = slot {
                w.u64(*frame);
            }
        }
        w.usize(free.len());
        for &slot in free {
            w.usize(slot);
        }
        w.usize(entries.len());
        for &frame in entries {
            w.u64(frame);
            w.u64(frame ^ 0xabc);
            w.u64(1);
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<ContentIndex<()>, SnapshotError> {
        ContentIndex::load_with(&mut Reader::new(bytes), |_| Ok(()))
    }

    #[test]
    fn load_rejects_entries_that_are_not_the_live_frames() {
        let ix = load(&stream(&[Some(5), None, Some(9)], &[1], &[5, 9]))
            .expect("entries for the live frames load");
        assert_eq!(ix.node_of(FrameId(9)), Some(NodeId(2)));
        assert_eq!(ix.ids(), vec![NodeId(0), NodeId(2)]);
        for (slots, entries, what) in [
            (
                [Some(5), Some(9)],
                &[5][..],
                "a live frame without an entry",
            ),
            (
                [Some(5), Some(9)],
                &[5, 9, 11],
                "an entry for a frame no slot holds",
            ),
            ([Some(5), Some(9)], &[5, 5, 9], "a repeated entry"),
            ([Some(5), Some(5)], &[5], "two slots holding one frame"),
        ] {
            assert!(
                matches!(
                    load(&stream(&slots, &[], entries)),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn crafted_free_lists_are_rejected() {
        let slots = [Some(5), None, Some(9), None];
        let ix = load(&stream(&slots, &[3, 1], &[5, 9])).expect("a well-formed index loads");
        // The free list travels in order: the next insert reuses slot 1.
        let mut ix = ix;
        let mem = PhysMemory::new(16);
        assert_eq!(ix.insert(&mem, FrameId(12), ()), (NodeId(1), true));
        for (free, what) in [
            (&[3, 0][..], "a free list naming a live slot"),
            (&[3, 3], "a repeated free slot"),
            (&[3, 1, 7], "a free slot past the arena"),
            (&[3], "a dead slot missing from the free list"),
        ] {
            assert!(
                matches!(
                    load(&stream(&slots, free, &[5, 9])),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn crafted_lengths_are_truncated_not_allocated() {
        let huge = u64::MAX >> 8;
        let mut slots = Writer::new();
        slots.u64(huge);
        let mut free = Writer::new();
        free.usize(0);
        free.u64(huge);
        let mut entries = Writer::new();
        entries.usize(0);
        entries.usize(0);
        entries.u64(huge);
        for w in [slots, free, entries] {
            assert!(matches!(
                load(&w.into_bytes()),
                Err(SnapshotError::Truncated)
            ));
        }
    }

    /// Pages in the model test are zero except four words (the first, two
    /// inner ones and the last), each below `VALS`: 81 contents over
    /// `FRAMES` frames, so equal pages are common inside and outside the
    /// index.
    const FRAMES: u64 = 40;
    const WORDS: [u64; 4] = [0, 1, 256, 511];
    const VALS: u64 = 3;

    /// Rewrites all of `f`: a fresh page of the model's alphabet.
    fn fill(mem: &mut PhysMemory, rng: &mut StdRng, f: FrameId) {
        let mut page = [0u8; PAGE_SIZE as usize];
        for word in WORDS {
            let at = word as usize * 8;
            page[at..at + 8].copy_from_slice(&rng.random_range(0..VALS).to_le_bytes());
        }
        mem.write_page(f, &page);
    }

    /// Writes one word of `f` in place: usually one of `WORDS`, sometimes
    /// any word of the page.
    fn scribble(mem: &mut PhysMemory, rng: &mut StdRng, f: FrameId) {
        let word = if rng.random_bool(0.25) {
            rng.random_range(0..PAGE_SIZE / 8)
        } else {
            WORDS[rng.random_range(0..WORDS.len())]
        };
        let value = rng.random_range(0..VALS);
        mem.write_u64(PhysAddr(f.0 * PAGE_SIZE + word * 8), value);
    }

    /// The index against a model (frame → node and value) through seeded
    /// inserts (duplicates included), removes, frame moves, in-place
    /// writes to any word of indexed pages followed by a refresh or an
    /// eviction, clears and save → load → continue. In-place writes may
    /// make two indexed pages equal. After every step: `find` returns a
    /// node whose page equals the probe, and `None` only when no indexed
    /// page does; `node_of`, `ids` and `stale_frames` agree with the
    /// model; the frame map and the buckets hold exactly the live nodes;
    /// save → load → save is byte-identical; and the epoch stamp skips a
    /// refresh exactly while no frame was written.
    #[test]
    fn matches_model() {
        // How often each operation changed something, over all seeds; the
        // last counts steps that left two equal pages in the index.
        let mut met = [0usize; 9];
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1de7);
            let mut mem = PhysMemory::new(FRAMES as usize);
            for f in 0..FRAMES {
                fill(&mut mem, &mut rng, FrameId(f));
            }
            let mut ix: ContentIndex<u64> = ContentIndex::default();
            let mut model: BTreeMap<FrameId, (NodeId, u64)> = BTreeMap::new();
            let mut next_value = 0u64;
            for step in 0..200 {
                let f = FrameId(rng.random_range(0..FRAMES));
                match rng.random_range(0..20u8) {
                    0..=6 => {
                        let equal: Vec<NodeId> = model
                            .iter()
                            .filter(|&(&t, _)| mem.pages_equal(t, f))
                            .map(|(_, &(node, _))| node)
                            .collect();
                        next_value += 1;
                        let (node, inserted) = ix.insert(&mem, f, next_value);
                        if equal.is_empty() {
                            met[1] += 1;
                            assert!(inserted, "seed {seed} step {step}");
                            model.insert(f, (node, next_value));
                        } else {
                            met[0] += 1;
                            assert!(!inserted, "seed {seed} step {step}");
                            assert!(equal.contains(&node), "seed {seed} step {step}");
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
                        // A write to a page outside the index.
                        if !model.contains_key(&f) {
                            fill(&mut mem, &mut rng, f);
                        }
                    }
                    15..=17 => {
                        // In-place writes to indexed pages, then either a
                        // refresh (stable tree) or an eviction (unstable).
                        let written: BTreeSet<FrameId> = model
                            .keys()
                            .filter(|_| rng.random_bool(0.3))
                            .copied()
                            .collect();
                        for &t in &written {
                            scribble(&mut mem, &mut rng, t);
                        }
                        let stale: BTreeSet<FrameId> = ix.stale_frames(&mem).into_iter().collect();
                        assert_eq!(stale, written, "seed {seed} step {step}");
                        if rng.random_bool(0.5) {
                            met[4] += usize::from(!written.is_empty());
                            assert_eq!(ix.refresh(&mem), written.len());
                        } else {
                            met[5] += usize::from(!written.is_empty());
                            let values: Vec<u64> = written
                                .iter()
                                .map(|t| model.remove(t).expect("stale frames are indexed").1)
                                .collect();
                            assert_eq!(ix.evict_stale(&mem), values, "seed {seed} step {step}");
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
                    let got = ix.find(&mem, probe);
                    let equal: Vec<NodeId> = model
                        .iter()
                        .filter(|&(&t, _)| mem.pages_equal(t, probe))
                        .map(|(_, &(node, _))| node)
                        .collect();
                    let exact = match got {
                        Some(node) => equal.contains(&node),
                        None => equal.is_empty(),
                    };
                    assert!(
                        exact,
                        "seed {seed} step {step} find {probe:?}: got {got:?}, equal nodes {equal:?}"
                    );
                    assert_eq!(
                        ix.node_of(probe),
                        model.get(&probe).map(|&(node, _)| node),
                        "seed {seed} step {step}"
                    );
                }
                assert!(ix.stale_frames(&mem).is_empty(), "seed {seed} step {step}");
                let twins = model
                    .keys()
                    .any(|&a| model.keys().any(|&b| a < b && mem.pages_equal(a, b)));
                met[8] += usize::from(twins);
                // The arena, the frame map and the buckets hold exactly the
                // live nodes, hashed at their current content.
                let mut live: Vec<NodeId> = model.values().map(|&(node, _)| node).collect();
                live.sort_unstable();
                assert_eq!(ix.ids(), live, "seed {seed} step {step}");
                assert_eq!(ix.len(), model.len(), "seed {seed} step {step}");
                let mut buckets = BTreeSet::new();
                for (&t, &(node, value)) in &model {
                    let hash = content_hash(mem.page(t));
                    assert_eq!(
                        ix.frames.get(&t),
                        Some(&(node, hash, mem.write_gen(t))),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(*ix.slot(node), (t, value));
                    buckets.insert((hash, node));
                }
                assert_eq!(ix.frames.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(ix.buckets, buckets, "seed {seed} step {step}");
                let (first, _, again) = resave(&ix);
                assert_eq!(first, again, "seed {seed} step {step}");
                // The stamp: a refresh at an unchanged epoch returns 0 at
                // once and leaves nothing stale, and a write to any frame,
                // indexed or not, makes the next refresh walk. The write
                // stores a byte's own value, so the model stays as it is.
                ix.refresh(&mem);
                assert!(ix.fresh(&mem), "seed {seed} step {step}");
                assert_eq!(ix.refresh(&mem), 0, "seed {seed} step {step}");
                assert!(ix.stale_frames(&mem).is_empty(), "seed {seed} step {step}");
                let t = FrameId(rng.random_range(0..FRAMES));
                let at = PhysAddr(t.0 * PAGE_SIZE + rng.random_range(0..PAGE_SIZE));
                mem.write_byte(at, mem.read_byte(at));
                assert!(!ix.fresh(&mem), "seed {seed} step {step}");
                assert_eq!(
                    ix.refresh(&mem),
                    usize::from(model.contains_key(&t)),
                    "seed {seed} step {step}: the refresh walks"
                );
            }
        }
        assert!(met.iter().all(|&n| n > 0), "every operation ran: {met:?}");
    }
}
