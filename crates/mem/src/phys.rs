//! Physical memory: frame contents plus per-frame metadata.
//!
//! Frames are materialized lazily: an untouched frame is all-zeroes and
//! costs no host memory, which lets experiments simulate multi-gigabyte
//! guests cheaply (most guest memory is zero — and indeed zero pages are a
//! large fraction of fusion candidates, cf. Figure 4).
//!
//! Content hashes and zero checks are memoized per frame, keyed on the
//! frame's write generation ([`PhysMemory::write_gen`]). Frame bytes and
//! their generations live together in a private store whose only mutable
//! access to a frame's bytes bumps its generation, so every write —
//! including a Rowhammer [`PhysMemory::flip_bit`] or an injected fault —
//! invalidates the cached values, on every path, by construction. The
//! cache changes wall-clock cost only; every observable value
//! (`hash_page`, `is_zero`, comparisons) is identical to a fresh
//! computation, which `tests/write_gen_coherence.rs` and the chaos suite
//! assert under interleaved mutation.
//!
//! One more counter, the memory [epoch](PhysMemory::epoch), moves with
//! every generation bump and every metadata borrow, so a scanner that
//! recorded it can prove in O(1) that nothing in memory changed since.

use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::{Deref, DerefMut};

use crate::addr::{FrameId, PhysAddr, PAGE_SIZE};
use crate::frame::{FrameInfo, FrameState, PageType};

const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a page's content.
///
/// Used by the WPF engine's hash-sorted candidate list (§2.2) and by KSM's
/// "has the page changed since last scan" checksum.
///
/// The byte-at-a-time FNV-1a semantics are preserved exactly — WPF's
/// hash-sort order decides frame adjacency, so changing a single hash
/// value would silently move the §5.2 attack's timing curves. The loop is
/// merely restructured to load memory 32 bytes at a time as four `u64`
/// lanes and fold the bytes from registers.
///
/// One chain is bound by multiply latency: every byte waits for the
/// previous byte's multiply. [`PhysMemory::hash_stale`] therefore hashes
/// cold frames four pages at a time, one independent chain per page
/// advanced in lockstep, so the multiplies of different pages overlap;
/// each chain still yields exactly this function's value.
pub fn content_hash(bytes: &[u8]) -> u64 {
    #[inline(always)]
    fn fold_word(mut h: u64, word: u64) -> u64 {
        let mut shift = 0u32;
        while shift < 64 {
            h ^= (word >> shift) & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
            shift += 8;
        }
        h
    }
    let mut h = FNV_INIT;
    let mut wide = bytes.chunks_exact(32);
    for chunk in &mut wide {
        let mut lanes = [0u64; 4];
        for (lane, w) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            *lane = u64::from_le_bytes(buf);
        }
        // The FNV chain is strictly sequential; the win is in the four
        // unrolled wide loads per iteration, not in reordering the folds.
        for lane in lanes {
            h = fold_word(h, lane);
        }
    }
    let tail = wide.remainder();
    let mut words = tail.chunks_exact(8);
    for chunk in &mut words {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        h = fold_word(h, u64::from_le_bytes(buf));
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of 4096 zero bytes: each step xors in 0 (a no-op) and
/// multiplies by the prime, so the whole page folds to 4096 multiplies —
/// computable at compile time.
const fn zero_page_hash() -> u64 {
    let mut h = FNV_INIT;
    let mut i = 0;
    while i < PAGE_SIZE as usize {
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

const ZERO_PAGE_HASH: u64 = zero_page_hash();

/// A frame's 4096 content bytes.
type Page = [u8; PAGE_SIZE as usize];

const ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// Frame bytes and their write generations, in one type whose fields
/// nothing outside this module can reach. Every mutable access to a
/// frame's bytes bumps that frame's generation and the memory epoch, so a
/// memoized value keyed on the generation cannot outlive the bytes it
/// describes, and an unchanged epoch proves no frame was written. Only the
/// `load_*` methods write without a bump. `PhysMemory::load`, their one
/// caller, runs `load_clear` first, which moves the epoch, and resets the
/// memo wholesale.
mod store {
    use super::{Page, ZERO_PAGE};

    pub(super) struct FrameStore {
        /// `None` is a lazy all-zero frame.
        pages: Vec<Option<Box<Page>>>,
        gens: Vec<u64>,
        /// Moves on every generation bump and on every `touch`.
        epoch: u64,
    }

    impl FrameStore {
        pub(super) fn new(frames: usize) -> Self {
            Self {
                pages: (0..frames).map(|_| None).collect(),
                gens: vec![0; frames],
                epoch: 0,
            }
        }

        /// The memory epoch.
        pub(super) fn epoch(&self) -> u64 {
            self.epoch
        }

        /// Moves the epoch without writing a frame: a metadata change.
        pub(super) fn touch(&mut self) {
            self.epoch = self.epoch.wrapping_add(1);
        }

        /// Frame `i`'s bytes; `None` for a lazy zero page.
        pub(super) fn page(&self, i: usize) -> Option<&Page> {
            self.pages[i].as_deref()
        }

        /// Frame `i`'s write generation.
        pub(super) fn gen(&self, i: usize) -> u64 {
            self.gens[i]
        }

        /// The materialized frames with their indices, in frame order.
        pub(super) fn materialized(&self) -> impl Iterator<Item = (usize, &Page)> {
            self.pages
                .iter()
                .enumerate()
                .filter_map(|(i, p)| Some((i, p.as_deref()?)))
        }

        fn bump(&mut self, i: usize) {
            self.gens[i] = self.gens[i].wrapping_add(1);
            self.touch();
        }

        /// Frame `i`'s bytes for writing, materialized if lazy. Bumps.
        pub(super) fn edit(&mut self, i: usize) -> &mut Page {
            self.bump(i);
            self.pages[i].get_or_insert_with(|| Box::new(ZERO_PAGE))
        }

        /// Replaces frame `i`'s bytes (`None`: a lazy zero page). Bumps.
        pub(super) fn set(&mut self, i: usize, page: Option<Box<Page>>) {
            self.pages[i] = page;
            self.bump(i);
        }

        /// Copies frame `src`'s bytes into `dst` by cloning its box. Bumps
        /// `dst`.
        pub(super) fn copy(&mut self, src: usize, dst: usize) {
            self.pages[dst] = self.pages[src].clone();
            self.bump(dst);
        }

        /// Hands frame `src`'s box to `dst`, leaving `src` a lazy zero
        /// page. Bumps `dst`, then `src`.
        pub(super) fn move_page(&mut self, src: usize, dst: usize) {
            self.pages[dst] = self.pages[src].take();
            self.bump(dst);
            self.bump(src);
        }

        /// Restore: makes every frame a lazy zero page, in place, and
        /// moves the epoch.
        pub(super) fn load_clear(&mut self) {
            self.pages.fill(None);
            self.touch();
        }

        /// Restore: materializes frame `i` with `bytes`, decoded in place.
        pub(super) fn load_page(&mut self, i: usize, bytes: &[u8]) {
            let mut page = Box::new(ZERO_PAGE);
            page.copy_from_slice(bytes);
            self.pages[i] = Some(page);
        }

        /// Restore: sets frame `i`'s write generation.
        pub(super) fn load_gen(&mut self, i: usize, gen: u64) {
            self.gens[i] = gen;
        }
    }
}

/// Pages [`PhysMemory::hash_stale`] hashes per batch: four independent
/// chains keep four multiplies in flight where one chain keeps one.
const HASH_LANES: usize = 4;

/// FNV-1a of [`HASH_LANES`] pages at once: one independent byte-at-a-time
/// chain per page, advanced in lockstep so the chains' multiplies overlap.
/// Lane `l` of the result is exactly `content_hash(pages[l])`.
fn content_hash_lanes(pages: [&Page; HASH_LANES]) -> [u64; HASH_LANES] {
    let mut h = [FNV_INIT; HASH_LANES];
    for i in 0..PAGE_SIZE as usize {
        for (h, page) in h.iter_mut().zip(pages) {
            *h ^= u64::from(page[i]);
            *h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Wide all-zero check of a materialized page: 32 bytes per iteration,
/// OR-folding four `u64` lanes (4096 is a multiple of 32, so there is no
/// remainder to handle).
fn page_is_zero(page: &Page) -> bool {
    page.chunks_exact(32).all(|c| {
        let mut acc = 0u64;
        for w in c.chunks_exact(8) {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            acc |= u64::from_ne_bytes(buf);
        }
        acc == 0
    })
}

/// Memoized derived values for one frame, valid only while the recorded
/// generation equals the frame's current write generation.
#[derive(Clone, Copy, Default)]
struct FrameCache {
    hash: u64,
    hash_gen: u64,
    hash_valid: bool,
    zero: bool,
    zero_gen: u64,
    zero_valid: bool,
}

/// O(1) allocation accounting, maintained on every frame state
/// transition by [`FrameInfoMut`].
#[derive(Clone, Copy, Default)]
struct FrameCounts {
    allocated: usize,
    by_type: [usize; PageType::ALL.len()],
}

fn contribution(info: &FrameInfo) -> Option<PageType> {
    (info.state == FrameState::Allocated).then_some(info.page_type)
}

/// Mutable access to a frame's metadata. Dereferences to [`FrameInfo`];
/// on drop, any allocation-state or page-type transition made through it
/// is folded into the O(1) allocation counters.
pub struct FrameInfoMut<'a> {
    info: &'a mut FrameInfo,
    counts: &'a mut FrameCounts,
    was: Option<PageType>,
}

impl Deref for FrameInfoMut<'_> {
    type Target = FrameInfo;
    fn deref(&self) -> &FrameInfo {
        self.info
    }
}

impl DerefMut for FrameInfoMut<'_> {
    fn deref_mut(&mut self) -> &mut FrameInfo {
        self.info
    }
}

impl Drop for FrameInfoMut<'_> {
    fn drop(&mut self) {
        let now = contribution(self.info);
        if self.was == now {
            return;
        }
        if let Some(t) = self.was {
            self.counts.allocated -= 1;
            self.counts.by_type[t.index()] -= 1;
        }
        if let Some(t) = now {
            self.counts.allocated += 1;
            self.counts.by_type[t.index()] += 1;
        }
    }
}

/// Simulated physical memory: `n` frames of 4 KiB, with metadata.
pub struct PhysMemory {
    /// Frame bytes and their write generations.
    store: store::FrameStore,
    info: Vec<FrameInfo>,
    /// Memoized hashes: derived, reset by `load`.
    cache: Vec<Cell<FrameCache>>,
    /// Allocation tallies: derived, recounted from `info` by `load`.
    counts: FrameCounts,
}

impl PhysMemory {
    /// Creates a physical memory of `frames` frames, all free and zeroed.
    pub fn new(frames: usize) -> Self {
        Self {
            store: store::FrameStore::new(frames),
            info: vec![FrameInfo::default(); frames],
            cache: (0..frames)
                .map(|_| Cell::new(FrameCache::default()))
                .collect(),
            counts: FrameCounts::default(),
        }
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> usize {
        self.info.len()
    }

    /// Index of `frame`, validated against the frame count.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range — the simulator's bus fault.
    fn idx(&self, frame: FrameId) -> usize {
        let i = frame.0 as usize;
        assert!(i < self.info.len(), "frame {i} out of range");
        i
    }

    /// The frame's cached content hash, if still valid at its current
    /// write generation.
    fn cached_hash(&self, i: usize) -> Option<u64> {
        let c = self.cache[i].get();
        (c.hash_valid && c.hash_gen == self.store.gen(i)).then_some(c.hash)
    }

    /// The frame's write generation, bumped by every content mutation
    /// (`write_byte`, `write_u64`, `write_page`, `copy_page`, `zero_page`,
    /// both frames of a `move_page`, and `flip_bit`, so a Rowhammer flip
    /// counts like any other write).
    /// The hash and zero memo keys on it, and engines compare it to
    /// detect in-place changes of the pages they index.
    ///
    /// It can be read, never set: it lives beside the frame's bytes in a
    /// private store whose only mutable access bumps it, and
    /// [`FrameInfo`] has no such field (E0609):
    ///
    /// ```compile_fail
    /// let mut mem = vusion_mem::PhysMemory::new(1);
    /// mem.info_mut(vusion_mem::FrameId(0)).write_gen = 0;
    /// ```
    pub fn write_gen(&self, frame: FrameId) -> u64 {
        self.store.gen(self.idx(frame))
    }

    /// The memory epoch: a counter that moves on every mutable path to
    /// frame bytes or metadata (each write-generation bump, each
    /// [`Self::info_mut`] borrow, and a snapshot `load`) and on no read.
    /// An unchanged epoch therefore proves that no frame's bytes, write
    /// generation, refcount, state or type changed, which lets a scanner
    /// skip re-checking what it checked at that epoch. It is derived state
    /// of this one memory: never saved, and meaningless across memories.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Immutable metadata of a frame.
    pub fn info(&self, frame: FrameId) -> &FrameInfo {
        &self.info[self.idx(frame)]
    }

    /// Mutable metadata of a frame. The guard keeps the allocation
    /// counters in sync with whatever transition is performed through it.
    /// The borrow alone moves the [epoch](Self::epoch).
    pub fn info_mut(&mut self, frame: FrameId) -> FrameInfoMut<'_> {
        let i = self.idx(frame);
        self.store.touch();
        let was = contribution(&self.info[i]);
        FrameInfoMut {
            info: &mut self.info[i],
            counts: &mut self.counts,
            was,
        }
    }

    /// The 4096 content bytes of a frame.
    pub fn page(&self, frame: FrameId) -> &[u8; PAGE_SIZE as usize] {
        self.store.page(self.idx(frame)).unwrap_or(&ZERO_PAGE)
    }

    /// Whether the frame is all zeroes (cheap check for the lazy case;
    /// memoized against the frame's write generation otherwise).
    pub fn is_zero(&self, frame: FrameId) -> bool {
        let i = self.idx(frame);
        match self.store.page(i) {
            None => true,
            Some(b) => {
                let gen = self.store.gen(i);
                let mut c = self.cache[i].get();
                if c.zero_valid && c.zero_gen == gen {
                    return c.zero;
                }
                let z = page_is_zero(b);
                c.zero = z;
                c.zero_gen = gen;
                c.zero_valid = true;
                self.cache[i].set(c);
                z
            }
        }
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        self.page(addr.frame())[addr.page_offset() as usize]
    }

    /// Writes one byte, materializing the frame if needed.
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        let i = self.idx(addr.frame());
        self.store.edit(i)[addr.page_offset() as usize] = value;
    }

    /// Reads a little-endian u64 (must not cross a frame boundary).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a frame boundary.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let off = addr.page_offset() as usize;
        assert!(
            off + 8 <= PAGE_SIZE as usize,
            "u64 read crosses frame boundary"
        );
        let page = self.page(addr.frame());
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&page[off..off + 8]);
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian u64 (must not cross a frame boundary).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a frame boundary.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        let off = addr.page_offset() as usize;
        assert!(
            off + 8 <= PAGE_SIZE as usize,
            "u64 write crosses frame boundary"
        );
        let i = self.idx(addr.frame());
        self.store.edit(i)[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Overwrites a frame's entire content.
    pub fn write_page(&mut self, frame: FrameId, bytes: &[u8; PAGE_SIZE as usize]) {
        let i = self.idx(frame);
        let page = (!page_is_zero(bytes)).then(|| Box::new(*bytes));
        self.store.set(i, page);
    }

    /// Copies the content of `src` into `dst`.
    pub fn copy_page(&mut self, src: FrameId, dst: FrameId) {
        let si = self.idx(src);
        let di = self.idx(dst);
        self.store.copy(si, di);
        // The destination now holds exactly the source's bytes, so any
        // still-valid memoized value of the source seeds the destination
        // at its fresh generation (VUsion's fake merging copies pages
        // constantly).
        self.carry_memo(self.cache[si].get(), self.store.gen(si), di);
    }

    /// Moves the content of `src` into `dst` and leaves `src` zeroed,
    /// without copying the bytes: it leaves exactly the state of
    /// `copy_page(src, dst)` followed by `zero_page(src)`. Both write
    /// generations bump once (`dst` first), `dst`'s memo is seeded from
    /// `src`'s, and `src` is memoized as zero. VUsion's re-randomization
    /// hands each fused page to its fresh frame this way.
    ///
    /// # Panics
    ///
    /// Panics if either frame is out of range, or if `src == dst`: a page
    /// cannot move onto itself.
    pub fn move_page(&mut self, src: FrameId, dst: FrameId) {
        let si = self.idx(src);
        let di = self.idx(dst);
        assert_ne!(si, di, "a page cannot move onto its own frame");
        let (memo, gen) = (self.cache[si].get(), self.store.gen(si));
        self.store.move_page(si, di);
        self.carry_memo(memo, gen, di);
        self.memoize_zero(si);
    }

    /// Seeds frame `di`'s memo, at its current generation, with the values
    /// of `memo` that were valid at `gen`: the memo of a frame whose bytes
    /// `di` now holds, read at that frame's generation.
    fn carry_memo(&self, memo: FrameCache, gen: u64, di: usize) {
        let dgen = self.store.gen(di);
        let mut dc = FrameCache::default();
        if memo.hash_valid && memo.hash_gen == gen {
            dc.hash = memo.hash;
            dc.hash_gen = dgen;
            dc.hash_valid = true;
        }
        if memo.zero_valid && memo.zero_gen == gen {
            dc.zero = memo.zero;
            dc.zero_gen = dgen;
            dc.zero_valid = true;
        }
        self.cache[di].set(dc);
    }

    /// Zeroes a frame (demand-zero allocation path).
    pub fn zero_page(&mut self, frame: FrameId) {
        let i = self.idx(frame);
        self.store.set(i, None);
        self.memoize_zero(i);
    }

    /// Memoizes frame `i`, a lazy zero page, as zero at its current
    /// generation: its content is known exactly.
    fn memoize_zero(&self, i: usize) {
        let gen = self.store.gen(i);
        self.cache[i].set(FrameCache {
            hash: ZERO_PAGE_HASH,
            hash_gen: gen,
            hash_valid: true,
            zero: true,
            zero_gen: gen,
            zero_valid: true,
        });
    }

    /// Whether two frames have identical content.
    pub fn pages_equal(&self, a: FrameId, b: FrameId) -> bool {
        let ia = self.idx(a);
        let ib = self.idx(b);
        if ia == ib {
            return true;
        }
        // Differing cached hashes prove inequality (equal bytes hash
        // equal). Equal hashes prove nothing — FNV collisions exist — so
        // anything else falls through to the authoritative byte compare.
        if let (Some(ha), Some(hb)) = (self.cached_hash(ia), self.cached_hash(ib)) {
            if ha != hb {
                return false;
            }
        }
        match (self.store.page(ia), self.store.page(ib)) {
            (None, None) => true,
            (Some(x), Some(y)) => x == y,
            (None, Some(y)) => page_is_zero(y),
            (Some(x), None) => page_is_zero(x),
        }
    }

    /// Lexicographic comparison of two frames' content (the ordering KSM's
    /// content-indexed trees use), word-wise: lexicographic byte order is
    /// exactly numeric order of big-endian `u64` words.
    pub fn compare_pages(&self, a: FrameId, b: FrameId) -> Ordering {
        let ia = self.idx(a);
        let ib = self.idx(b);
        if ia == ib || (self.store.page(ia).is_none() && self.store.page(ib).is_none()) {
            return Ordering::Equal;
        }
        let pa = self.page(a);
        let pb = self.page(b);
        // 32 bytes per iteration: a cheap wide equality check first, then
        // (only on the differing chunk) the four big-endian word compares
        // that decide the order.
        for (ca, cb) in pa.chunks_exact(32).zip(pb.chunks_exact(32)) {
            if ca == cb {
                continue;
            }
            for (wa, wb) in ca.chunks_exact(8).zip(cb.chunks_exact(8)) {
                let mut ba = [0u8; 8];
                let mut bb = [0u8; 8];
                ba.copy_from_slice(wa);
                bb.copy_from_slice(wb);
                let va = u64::from_be_bytes(ba);
                let vb = u64::from_be_bytes(bb);
                if va != vb {
                    return va.cmp(&vb);
                }
            }
        }
        Ordering::Equal
    }

    /// FNV-1a hash of a frame's content, memoized against the frame's
    /// write generation. Always equal to `content_hash(self.page(frame))`.
    pub fn hash_page(&self, frame: FrameId) -> u64 {
        let i = self.idx(frame);
        match self.store.page(i) {
            None => ZERO_PAGE_HASH,
            Some(b) => {
                let gen = self.store.gen(i);
                let mut c = self.cache[i].get();
                if c.hash_valid && c.hash_gen == gen {
                    return c.hash;
                }
                let h = content_hash(b.as_slice());
                c.hash = h;
                c.hash_gen = gen;
                c.hash_valid = true;
                self.cache[i].set(c);
                h
            }
        }
    }

    /// Memoizes `hash` as frame `i`'s content hash at its current write
    /// generation.
    fn memoize_hash(&self, i: usize, hash: u64) {
        let mut c = self.cache[i].get();
        c.hash = hash;
        c.hash_gen = self.store.gen(i);
        c.hash_valid = true;
        self.cache[i].set(c);
    }

    /// Hashes every distinct frame of `frames` whose memoized hash is
    /// stale, so later [`hash_page`] calls on them are memo hits, and
    /// returns how many frames it hashed. Lazy-zero frames (never written,
    /// or zeroed) count as cached: their hash is a constant. The stale
    /// frames are hashed four at a time by independent FNV-1a chains,
    /// which overlap the multiplies one chain would wait on; every stored
    /// value equals `content_hash(self.page(frame))`.
    ///
    /// [`hash_page`]: PhysMemory::hash_page
    pub fn hash_stale(&self, frames: &[FrameId]) -> usize {
        let mut stale: Vec<(usize, &Page)> = frames
            .iter()
            .filter_map(|&f| {
                let i = self.idx(f);
                match self.store.page(i) {
                    Some(page) if self.cached_hash(i).is_none() => Some((i, page)),
                    _ => None,
                }
            })
            .collect();
        stale.sort_unstable_by_key(|&(i, _)| i);
        stale.dedup_by_key(|&mut (i, _)| i);
        let mut batches = stale.chunks_exact(HASH_LANES);
        for batch in &mut batches {
            let hashes = content_hash_lanes(std::array::from_fn(|l| batch[l].1));
            for (&(i, _), h) in batch.iter().zip(hashes) {
                self.memoize_hash(i, h);
            }
        }
        for &(i, page) in batches.remainder() {
            self.memoize_hash(i, content_hash(page));
        }
        stale.len()
    }

    /// Flips one bit of physical memory (a Rowhammer-induced fault). Returns
    /// the new value of the affected byte. Goes through [`write_byte`],
    /// so the frame's write generation bumps and any cached hash of the
    /// victim frame is invalidated.
    ///
    /// [`write_byte`]: PhysMemory::write_byte
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_bit(&mut self, addr: PhysAddr, bit: u8) -> u8 {
        assert!(bit < 8, "bit index out of range");
        let old = self.read_byte(addr);
        let new = old ^ (1 << bit);
        self.write_byte(addr, new);
        new
    }

    /// Number of frames currently in the [`FrameState::Allocated`] state;
    /// drives the memory-consumption curves of Figures 10–12. O(1):
    /// maintained on every state transition, reconciled against the
    /// O(frames) scan in debug builds.
    pub fn allocated_frames(&self) -> usize {
        debug_assert_eq!(
            self.counts.allocated,
            self.info
                .iter()
                .filter(|i| i.state == FrameState::Allocated)
                .count(),
            "allocated-frame counter out of sync with frame states"
        );
        self.counts.allocated
    }

    /// Counts allocated frames by page type (Table 3 accounting). O(types)
    /// from the transition-maintained counters; debug builds reconcile
    /// against a full frame scan.
    pub fn allocated_by_type(&self) -> Vec<(PageType, usize)> {
        #[cfg(debug_assertions)]
        {
            let mut slow = [0usize; PageType::ALL.len()];
            for info in &self.info {
                if info.state == FrameState::Allocated {
                    slow[info.page_type.index()] += 1;
                }
            }
            debug_assert_eq!(
                slow, self.counts.by_type,
                "per-type allocation counters out of sync with frame states"
            );
        }
        PageType::ALL
            .iter()
            .filter_map(|&t| {
                let c = self.counts.by_type[t.index()];
                (c > 0).then_some((t, c))
            })
            .collect()
    }
}

impl vusion_snapshot::Snapshot for PhysMemory {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.info.len());
        // Sparse frame contents: only materialized frames travel.
        w.usize(self.store.materialized().count());
        for (i, page) in self.store.materialized() {
            w.usize(i);
            w.bytes(page);
        }
        // Each frame's write generation follows its metadata record.
        for (i, info) in self.info.iter().enumerate() {
            info.save(w);
            w.u64(self.store.gen(i));
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let Self {
            store,
            info,
            cache,
            counts,
        } = self;
        let frames = r.usize()?;
        if frames != info.len() {
            return Err(SnapshotError::Corrupt("frame count mismatch"));
        }
        store.load_clear();
        let live = r.usize()?;
        for _ in 0..live {
            let i = r.usize()?;
            if i >= frames {
                return Err(SnapshotError::Corrupt("frame index out of range"));
            }
            store.load_page(i, r.bytes(PAGE_SIZE as usize)?);
        }
        for (i, f) in info.iter_mut().enumerate() {
            f.load(r)?;
            store.load_gen(i, r.u64()?);
        }
        // Memoized hashes and the O(1) allocation counters are derived
        // state: reset the former (no generation was bumped), recompute the
        // latter.
        for c in cache.iter() {
            c.set(FrameCache::default());
        }
        *counts = FrameCounts::default();
        for f in info.iter() {
            if let Some(t) = contribution(f) {
                counts.allocated += 1;
                counts.by_type[t.index()] += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_field() {
        let mut src = PhysMemory::new(4);
        src.write_byte(PhysAddr(PAGE_SIZE + 3), 0xA5);
        src.write_u64(PhysAddr(3 * PAGE_SIZE + 8), 0x0102_0304_0506_0708);
        for (i, t) in [(1, PageType::Anon), (3, PageType::PageCache)] {
            let mut f = src.info_mut(FrameId(i));
            f.on_alloc(t);
            f.get();
            f.generation = 40 + i;
        }
        let mut dst = PhysMemory::new(4);
        let (a, b) = vusion_snapshot::resave(&src, &mut dst).expect("resave");
        assert_eq!(a, b);
        // The derived tallies are recounted, not carried.
        assert_eq!(dst.allocated_frames(), 2);
        assert_eq!(dst.hash_page(FrameId(1)), src.hash_page(FrameId(1)));
    }

    #[test]
    fn epoch_moves_on_every_mutation_and_no_read() {
        let mut m = PhysMemory::new(3);
        let (f, g) = (FrameId(1), FrameId(2));
        let moves = |m: &mut PhysMemory, what: &str, op: &dyn Fn(&mut PhysMemory)| {
            let before = m.epoch();
            op(m);
            assert_ne!(m.epoch(), before, "{what} must move the epoch");
        };
        let mut page = [0u8; PAGE_SIZE as usize];
        page[9] = 3;
        moves(&mut m, "write_byte", &|m| {
            m.write_byte(PhysAddr(PAGE_SIZE), 1)
        });
        moves(&mut m, "write_u64", &|m| {
            m.write_u64(PhysAddr(PAGE_SIZE + 8), 2)
        });
        moves(&mut m, "write_page", &|m| m.write_page(g, &page));
        moves(&mut m, "copy_page", &|m| m.copy_page(f, g));
        moves(&mut m, "zero_page", &|m| m.zero_page(g));
        moves(&mut m, "move_page", &|m| m.move_page(g, f));
        moves(&mut m, "flip_bit", &|m| {
            m.flip_bit(PhysAddr(2 * PAGE_SIZE + 5), 3);
        });
        // A borrow with no change counts: the guard cannot tell.
        moves(&mut m, "info_mut", &|m| {
            m.info_mut(f);
        });
        moves(&mut m, "info_mut().on_alloc()", &|m| {
            m.info_mut(f).on_alloc(PageType::Anon);
        });
        moves(&mut m, "info_mut().get()", &|m| {
            m.info_mut(f).get();
        });
        let mut w = vusion_snapshot::Writer::new();
        vusion_snapshot::Snapshot::save(&m, &mut w);
        let image = w.into_bytes();
        moves(&mut m, "load", &|m| {
            let mut r = vusion_snapshot::Reader::new(&image);
            vusion_snapshot::Snapshot::load(m, &mut r).expect("load");
        });
        let still = m.epoch();
        let _ = m.read_byte(PhysAddr(PAGE_SIZE));
        let _ = m.read_u64(PhysAddr(PAGE_SIZE + 8));
        let _ = m.page(f);
        let _ = m.hash_page(f);
        assert_eq!(m.hash_stale(&[f, g]), 1, "the restored memo is cold");
        let _ = m.is_zero(g);
        let _ = m.pages_equal(f, g);
        let _ = m.compare_pages(f, g);
        let _ = m.info(f);
        let _ = m.write_gen(f);
        vusion_snapshot::Snapshot::save(&m, &mut vusion_snapshot::Writer::new());
        assert_eq!(m.epoch(), still, "reads must not move the epoch");
    }

    #[test]
    fn frames_start_zeroed_and_lazy() {
        let m = PhysMemory::new(4);
        assert!(m.is_zero(FrameId(0)));
        assert_eq!(m.read_byte(PhysAddr(100)), 0);
    }

    #[test]
    fn byte_write_read_roundtrip() {
        let mut m = PhysMemory::new(4);
        m.write_byte(PhysAddr(4096 + 17), 0xAB);
        assert_eq!(m.read_byte(PhysAddr(4096 + 17)), 0xAB);
        assert!(!m.is_zero(FrameId(1)));
        assert!(m.is_zero(FrameId(0)));
    }

    #[test]
    fn u64_roundtrip_little_endian() {
        let mut m = PhysMemory::new(1);
        m.write_u64(PhysAddr(8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(PhysAddr(8)), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_byte(PhysAddr(8)), 0xef);
    }

    #[test]
    fn copy_page_duplicates_content() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(5), 9);
        m.copy_page(FrameId(0), FrameId(1));
        assert!(m.pages_equal(FrameId(0), FrameId(1)));
        // Copies are independent afterwards.
        m.write_byte(PhysAddr(PAGE_SIZE + 5), 10);
        assert!(!m.pages_equal(FrameId(0), FrameId(1)));
    }

    #[test]
    fn zero_written_page_equals_lazy_zero() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(0), 1);
        m.write_byte(PhysAddr(0), 0);
        assert!(m.pages_equal(FrameId(0), FrameId(1)));
        assert_eq!(m.hash_page(FrameId(0)), m.hash_page(FrameId(1)));
    }

    #[test]
    fn compare_pages_is_lexicographic() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(0), 1);
        assert_eq!(
            m.compare_pages(FrameId(1), FrameId(0)),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            m.compare_pages(FrameId(0), FrameId(0)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn compare_pages_orders_within_a_word() {
        // Bytes 0..8 fall in one u64; lexicographic order must still hold
        // byte-wise (big-endian word interpretation).
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(3), 2);
        m.write_byte(PhysAddr(PAGE_SIZE + 3), 1);
        m.write_byte(PhysAddr(PAGE_SIZE + 4), 0xFF);
        // Page 0: 00 00 00 02 ...; page 1: 00 00 00 01 FF ... → page 1 < page 0.
        assert_eq!(
            m.compare_pages(FrameId(1), FrameId(0)),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn hash_differs_on_content() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(0), 1);
        assert_ne!(m.hash_page(FrameId(0)), m.hash_page(FrameId(1)));
    }

    #[test]
    fn content_hash_matches_bytewise_reference() {
        // The chunked implementation must reproduce byte-at-a-time FNV-1a
        // exactly: WPF's sort order (and the §5.2 attack) depends on the
        // values, not just on hash equality.
        let mut page = [0u8; PAGE_SIZE as usize];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
        assert_eq!(content_hash(&page), bytewise_reference(&page));
        // Lengths that exercise the non-multiple-of-8 remainder path.
        for len in [0usize, 1, 7, 8, 9, 63, 100] {
            assert_eq!(content_hash(&page[..len]), bytewise_reference(&page[..len]));
        }
        assert_eq!(content_hash(&ZERO_PAGE), ZERO_PAGE_HASH);
    }

    #[test]
    fn hash_cache_invalidated_by_every_mutator() {
        let mut m = PhysMemory::new(3);
        let f = FrameId(0);
        m.write_byte(PhysAddr(1), 3);
        let h1 = m.hash_page(f); // populate cache
        m.write_byte(PhysAddr(1), 4);
        assert_ne!(m.hash_page(f), h1);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        m.write_u64(PhysAddr(64), 0xdead_beef);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        let snapshot = *m.page(FrameId(1));
        m.write_page(f, &snapshot);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        m.write_byte(PhysAddr(2 * PAGE_SIZE + 9), 9);
        let _ = m.hash_page(FrameId(2));
        m.copy_page(FrameId(2), f);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));
        assert_eq!(m.hash_page(f), m.hash_page(FrameId(2)));

        let _ = m.hash_page(f);
        m.flip_bit(PhysAddr(17), 5);
        assert_eq!(m.hash_page(f), content_hash(m.page(f)));

        m.zero_page(f);
        assert_eq!(m.hash_page(f), ZERO_PAGE_HASH);
        assert!(m.is_zero(f));
    }

    #[test]
    fn move_page_matches_copy_then_zero() {
        let (src, dst) = (FrameId(1), FrameId(2));
        let mut bytes = [0u8; PAGE_SIZE as usize];
        bytes[77] = 0x5c;
        // The memoized (hash, zero) values still valid at `f`'s generation.
        let memo = |m: &PhysMemory, f: FrameId| {
            let i = m.idx(f);
            let c = m.cache[i].get();
            let zero = (c.zero_valid && c.zero_gen == m.store.gen(i)).then_some(c.zero);
            (m.cached_hash(i), zero)
        };
        let image = |m: &PhysMemory| {
            let mut w = vusion_snapshot::Writer::new();
            vusion_snapshot::Snapshot::save(m, &mut w);
            w.into_bytes()
        };
        for materialized in [true, false] {
            for warm in [true, false] {
                let case = format!("materialized {materialized}, warm {warm}");
                let setup = || {
                    let mut m = PhysMemory::new(3);
                    // The destination held a page of its own.
                    m.write_byte(PhysAddr(2 * PAGE_SIZE + 5), 9);
                    match (materialized, warm) {
                        (true, _) => m.write_page(src, &bytes),
                        (false, true) => m.zero_page(src),
                        (false, false) => m.write_page(src, &ZERO_PAGE),
                    }
                    if warm {
                        let _ = (m.hash_page(src), m.is_zero(src));
                    }
                    assert_eq!(memo(&m, src).0.is_some(), warm, "{case}: set-up");
                    m
                };
                let (mut moved, mut twin) = (setup(), setup());
                let before = moved.epoch();
                moved.move_page(src, dst);
                twin.copy_page(src, dst);
                twin.zero_page(src);
                assert_ne!(moved.epoch(), before, "{case}: epoch");
                assert_eq!(moved.epoch(), twin.epoch(), "{case}: epoch");
                for f in [src, dst] {
                    assert_eq!(memo(&moved, f), memo(&twin, f), "{case}: memo of {f:?}");
                    assert_eq!(moved.page(f), twin.page(f), "{case}: bytes of {f:?}");
                    assert_eq!(
                        moved.write_gen(f),
                        twin.write_gen(f),
                        "{case}: gen of {f:?}"
                    );
                    assert_eq!(
                        moved.hash_page(f),
                        twin.hash_page(f),
                        "{case}: hash of {f:?}"
                    );
                    assert_eq!(moved.is_zero(f), twin.is_zero(f), "{case}: zero of {f:?}");
                }
                let want = if materialized { &bytes } else { &ZERO_PAGE };
                assert_eq!(moved.page(dst), want, "{case}: moved bytes");
                assert_eq!(image(&moved), image(&twin), "{case}: saved image");
            }
        }
    }

    #[test]
    fn is_zero_cache_tracks_writes() {
        let mut m = PhysMemory::new(1);
        m.write_byte(PhysAddr(100), 1);
        assert!(!m.is_zero(FrameId(0)));
        m.write_byte(PhysAddr(100), 0);
        assert!(m.is_zero(FrameId(0)));
        m.flip_bit(PhysAddr(100), 0);
        assert!(!m.is_zero(FrameId(0)));
    }

    #[test]
    fn flip_bit_toggles() {
        let mut m = PhysMemory::new(1);
        m.write_byte(PhysAddr(10), 0b0000_0100);
        let v = m.flip_bit(PhysAddr(10), 2);
        assert_eq!(v, 0);
        let v = m.flip_bit(PhysAddr(10), 7);
        assert_eq!(v, 0b1000_0000);
    }

    #[test]
    fn write_page_of_zeroes_dematerializes() {
        let mut m = PhysMemory::new(1);
        m.write_byte(PhysAddr(0), 7);
        m.write_page(FrameId(0), &[0; PAGE_SIZE as usize]);
        assert!(m.is_zero(FrameId(0)));
    }

    #[test]
    fn allocation_accounting() {
        let mut m = PhysMemory::new(3);
        m.info_mut(FrameId(0)).on_alloc(PageType::Anon);
        m.info_mut(FrameId(2)).on_alloc(PageType::PageCache);
        assert_eq!(m.allocated_frames(), 2);
        let by_type = m.allocated_by_type();
        assert!(by_type.contains(&(PageType::Anon, 1)));
        assert!(by_type.contains(&(PageType::PageCache, 1)));
    }

    #[test]
    fn allocation_counters_follow_transitions() {
        let mut m = PhysMemory::new(4);
        m.info_mut(FrameId(0)).on_alloc(PageType::Anon);
        m.info_mut(FrameId(1)).on_alloc(PageType::Fused);
        assert_eq!(m.allocated_frames(), 2);
        {
            let mut info = m.info_mut(FrameId(1));
            assert!(info.put());
            info.on_free();
        }
        assert_eq!(m.allocated_frames(), 1);
        assert_eq!(m.allocated_by_type(), vec![(PageType::Anon, 1)]);
        // Retyping in place must move the per-type counter too.
        m.info_mut(FrameId(0)).page_type = PageType::PageCache;
        assert_eq!(m.allocated_by_type(), vec![(PageType::PageCache, 1)]);
        assert_eq!(m.allocated_frames(), 1);
    }

    /// The pre-wide-op implementation (8-byte chunks), kept verbatim as a
    /// regression reference: the 32-byte-lane rewrite must reproduce its
    /// values bit-for-bit on every seeded page.
    fn content_hash_old(bytes: &[u8]) -> u64 {
        let mut h = FNV_INIT;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            let word = u64::from_le_bytes(w);
            let mut shift = 0u32;
            while shift < 64 {
                h ^= (word >> shift) & 0xff;
                h = h.wrapping_mul(FNV_PRIME);
                shift += 8;
            }
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn wide_ops_match_old_implementation_on_seeded_pages() {
        // Deterministic xorshift fill — no external RNG in unit tests.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seed_page in 0..8 {
            let mut page = [0u8; PAGE_SIZE as usize];
            for chunk in page.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            if seed_page % 3 == 0 {
                // Long zero prefixes exercise the early-equal chunks.
                page[..1024].fill(0);
            }
            assert_eq!(content_hash(&page), content_hash_old(&page));
            for len in [0usize, 1, 7, 8, 31, 32, 33, 63, 100, 4095] {
                assert_eq!(content_hash(&page[..len]), content_hash_old(&page[..len]));
            }
            assert!(!page_is_zero(&page) || page.iter().all(|&b| b == 0));
        }
        assert_eq!(content_hash(&ZERO_PAGE), content_hash_old(&ZERO_PAGE));
        assert!(page_is_zero(&ZERO_PAGE));
    }

    /// Byte-at-a-time FNV-1a, straight from the definition.
    fn bytewise_reference(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Eight deterministic xorshift-filled pages; page 5 is all zero.
    fn seeded_pages() -> Vec<[u8; PAGE_SIZE as usize]> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..8)
            .map(|p| {
                let mut page = [0u8; PAGE_SIZE as usize];
                if p != 5 {
                    for chunk in page.chunks_exact_mut(8) {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        chunk.copy_from_slice(&state.to_le_bytes());
                    }
                }
                page
            })
            .collect()
    }

    #[test]
    fn lane_hash_matches_bytewise_reference() {
        let pages = seeded_pages();
        for batch in pages.chunks_exact(HASH_LANES) {
            let hashes = content_hash_lanes(std::array::from_fn(|l| &batch[l]));
            for (page, h) in batch.iter().zip(hashes) {
                assert_eq!(h, bytewise_reference(page));
            }
        }
        assert_eq!(bytewise_reference(&pages[5]), ZERO_PAGE_HASH);
    }

    #[test]
    fn hash_stale_hashes_each_distinct_stale_frame_once() {
        const FRAMES: u64 = 12;
        let pages = seeded_pages();
        for len in 0..=9usize {
            let mut m = PhysMemory::new(FRAMES as usize);
            // Frames 0..8 are written; frames 8..12 never are.
            for (f, page) in pages.iter().enumerate() {
                m.write_page(FrameId(f as u64), page);
            }
            // Frame 5 is written back to zeroes: materialized, zero content.
            m.write_byte(PhysAddr(5 * PAGE_SIZE + 9), 1);
            m.write_byte(PhysAddr(5 * PAGE_SIZE + 9), 0);
            // Written and never-written frames interleaved, with repeats.
            let input: Vec<FrameId> = (0..len as u64)
                .map(|k| FrameId((k * 5) % FRAMES))
                .chain((0..len as u64 / 3).map(|k| FrameId((k * 5) % FRAMES)))
                .collect();
            let mut distinct_written: Vec<u64> =
                input.iter().map(|f| f.0).filter(|&f| f < 8).collect();
            distinct_written.sort_unstable();
            distinct_written.dedup();
            assert_eq!(m.hash_stale(&input), distinct_written.len(), "len {len}");
            for f in 0..FRAMES {
                let c = m.cache[f as usize].get();
                if distinct_written.contains(&f) {
                    assert!(c.hash_valid && c.hash_gen == m.write_gen(FrameId(f)));
                    assert_eq!(c.hash, content_hash(m.page(FrameId(f))), "frame {f}");
                } else {
                    assert!(!c.hash_valid, "frame {f} was not asked for");
                }
            }
            assert_eq!(m.hash_stale(&input), 0, "len {len}: all warm");
            if let Some(&f) = distinct_written.first() {
                m.write_byte(PhysAddr(f * PAGE_SIZE + 100), 0x5a);
                assert_eq!(m.hash_stale(&input), 1, "len {len}: one write");
                assert_eq!(m.hash_page(FrameId(f)), content_hash(m.page(FrameId(f))));
            }
        }
    }

    #[test]
    fn hash_stale_tracks_the_memo_cache() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(7), 0x42);
        assert_eq!(m.hash_stale(&[FrameId(0)]), 1);
        assert_eq!(m.hash_stale(&[FrameId(0)]), 0);
        assert_eq!(m.hash_page(FrameId(0)), content_hash(m.page(FrameId(0))));
        // A value memoized by `hash_page` counts as cached too.
        m.write_byte(PhysAddr(8), 1);
        let h = m.hash_page(FrameId(0));
        assert_eq!(m.hash_stale(&[FrameId(0)]), 0);
        assert_eq!(h, content_hash(m.page(FrameId(0))));
        // A later write invalidates the memoized value like any other.
        m.write_byte(PhysAddr(9), 2);
        assert_eq!(m.hash_stale(&[FrameId(0)]), 1);
        assert_eq!(m.hash_page(FrameId(0)), content_hash(m.page(FrameId(0))));
        // Lazy-zero frames are always "cached" (the hash is a constant).
        assert_eq!(m.hash_stale(&[FrameId(1)]), 0);
        assert_eq!(m.hash_page(FrameId(1)), ZERO_PAGE_HASH);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn u64_across_boundary_panics() {
        let m = PhysMemory::new(2);
        let _ = m.read_u64(PhysAddr(PAGE_SIZE - 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_frame_panics() {
        let m = PhysMemory::new(1);
        let _ = m.page(FrameId(1));
    }
}
