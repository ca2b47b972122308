//! Physical memory: frame contents plus per-frame metadata.
//!
//! Frames are materialized lazily: an untouched frame is all-zeroes and
//! costs no host memory, which lets experiments simulate multi-gigabyte
//! guests cheaply (most guest memory is zero — and indeed zero pages are a
//! large fraction of fusion candidates, cf. Figure 4).
//!
//! Content hashes and zero checks are memoized per frame, keyed on the
//! frame's [`FrameInfo::write_gen`]: every mutator bumps the generation,
//! so any write — including a Rowhammer [`PhysMemory::flip_bit`] or an
//! injected fault — invalidates the cached values for free. The cache
//! changes wall-clock cost only; every observable value (`hash_page`,
//! `is_zero`, comparisons) is identical to a fresh computation, which the
//! chaos suite asserts under interleaved mutation.

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

const ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Wide all-zero check of a materialized page: 32 bytes per iteration,
/// OR-folding four `u64` lanes (4096 is a multiple of 32, so there is no
/// remainder to handle).
fn page_is_zero(page: &[u8; PAGE_SIZE as usize]) -> bool {
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
/// generation equals the frame's current [`FrameInfo::write_gen`].
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
    data: Vec<Option<Box<[u8; PAGE_SIZE as usize]>>>,
    info: Vec<FrameInfo>,
    // vlint: allow(S001, derived memo — load resets every entry to FrameCache::default)
    cache: Vec<Cell<FrameCache>>,
    // vlint: allow(S001, derived tallies — recounted from the frame table in load)
    counts: FrameCounts,
}

impl PhysMemory {
    /// Creates a physical memory of `frames` frames, all free and zeroed.
    pub fn new(frames: usize) -> Self {
        Self {
            data: (0..frames).map(|_| None).collect(),
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

    /// Bumps a frame's write generation, invalidating memoized values.
    fn touch(&mut self, i: usize) {
        self.info[i].write_gen = self.info[i].write_gen.wrapping_add(1);
    }

    /// The frame's cached content hash, if still valid at its current
    /// write generation.
    fn cached_hash(&self, i: usize) -> Option<u64> {
        let c = self.cache[i].get();
        (c.hash_valid && c.hash_gen == self.info[i].write_gen).then_some(c.hash)
    }

    /// Immutable metadata of a frame.
    pub fn info(&self, frame: FrameId) -> &FrameInfo {
        &self.info[self.idx(frame)]
    }

    /// Mutable metadata of a frame. The guard keeps the allocation
    /// counters in sync with whatever transition is performed through it.
    pub fn info_mut(&mut self, frame: FrameId) -> FrameInfoMut<'_> {
        let i = self.idx(frame);
        let was = contribution(&self.info[i]);
        FrameInfoMut {
            info: &mut self.info[i],
            counts: &mut self.counts,
            was,
        }
    }

    /// The 4096 content bytes of a frame.
    pub fn page(&self, frame: FrameId) -> &[u8; PAGE_SIZE as usize] {
        match &self.data[self.idx(frame)] {
            Some(b) => b,
            None => &ZERO_PAGE,
        }
    }

    /// Whether the frame is all zeroes (cheap check for the lazy case;
    /// memoized against the frame's write generation otherwise).
    pub fn is_zero(&self, frame: FrameId) -> bool {
        let i = self.idx(frame);
        match &self.data[i] {
            None => true,
            Some(b) => {
                let gen = self.info[i].write_gen;
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
        let page = self.data[i].get_or_insert_with(|| Box::new(ZERO_PAGE));
        page[addr.page_offset() as usize] = value;
        self.touch(i);
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
        let page = self.data[i].get_or_insert_with(|| Box::new(ZERO_PAGE));
        page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        self.touch(i);
    }

    /// Overwrites a frame's entire content.
    pub fn write_page(&mut self, frame: FrameId, bytes: &[u8; PAGE_SIZE as usize]) {
        let i = self.idx(frame);
        if page_is_zero(bytes) {
            self.data[i] = None;
        } else {
            self.data[i] = Some(Box::new(*bytes));
        }
        self.touch(i);
    }

    /// Copies the content of `src` into `dst`.
    pub fn copy_page(&mut self, src: FrameId, dst: FrameId) {
        let si = self.idx(src);
        let di = self.idx(dst);
        self.data[di] = self.data[si].clone();
        self.touch(di);
        // The destination now holds exactly the source's bytes, so any
        // still-valid memoized value of the source seeds the destination
        // at its fresh generation (VUsion's fake merging and
        // re-randomization copy pages constantly).
        let sc = self.cache[si].get();
        let sgen = self.info[si].write_gen;
        let dgen = self.info[di].write_gen;
        let mut dc = FrameCache::default();
        if sc.hash_valid && sc.hash_gen == sgen {
            dc.hash = sc.hash;
            dc.hash_gen = dgen;
            dc.hash_valid = true;
        }
        if sc.zero_valid && sc.zero_gen == sgen {
            dc.zero = sc.zero;
            dc.zero_gen = dgen;
            dc.zero_valid = true;
        }
        self.cache[di].set(dc);
    }

    /// Zeroes a frame (demand-zero allocation path).
    pub fn zero_page(&mut self, frame: FrameId) {
        let i = self.idx(frame);
        self.data[i] = None;
        self.touch(i);
        // Content is now known exactly; memoize it outright.
        let gen = self.info[i].write_gen;
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
        match (&self.data[ia], &self.data[ib]) {
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
        if ia == ib || (self.data[ia].is_none() && self.data[ib].is_none()) {
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
        match &self.data[i] {
            None => ZERO_PAGE_HASH,
            Some(b) => {
                let gen = self.info[i].write_gen;
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

    /// Whether the frame's memoized content hash is valid at its current
    /// write generation (i.e. [`hash_page`] would be a cache hit). The
    /// scan pre-hash uses this to hash, and charge for, only the frames
    /// whose content changed since they were last hashed.
    ///
    /// [`hash_page`]: PhysMemory::hash_page
    pub fn has_cached_hash(&self, frame: FrameId) -> bool {
        let i = self.idx(frame);
        self.data[i].is_none() || self.cached_hash(i).is_some()
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
        let live = self.data.iter().filter(|d| d.is_some()).count();
        w.usize(live);
        for (i, d) in self.data.iter().enumerate() {
            if let Some(page) = d {
                w.usize(i);
                w.bytes(page.as_slice());
            }
        }
        for info in &self.info {
            info.save(w);
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let frames = r.usize()?;
        if frames != self.info.len() {
            return Err(SnapshotError::Corrupt("frame count mismatch"));
        }
        for d in &mut self.data {
            *d = None;
        }
        let live = r.usize()?;
        for _ in 0..live {
            let i = r.usize()?;
            if i >= frames {
                return Err(SnapshotError::Corrupt("frame index out of range"));
            }
            let bytes = r.bytes(PAGE_SIZE as usize)?;
            let mut page = Box::new(ZERO_PAGE);
            page.copy_from_slice(bytes);
            self.data[i] = Some(page);
        }
        for info in &mut self.info {
            info.load(r)?;
        }
        // Memoized hashes and the O(1) allocation counters are derived
        // state: reset the former, recompute the latter.
        for c in &self.cache {
            c.set(FrameCache::default());
        }
        self.counts = FrameCounts::default();
        for info in &self.info {
            if let Some(t) = contribution(info) {
                self.counts.allocated += 1;
                self.counts.by_type[t.index()] += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let reference = |bytes: &[u8]| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        };
        let mut page = [0u8; PAGE_SIZE as usize];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
        assert_eq!(content_hash(&page), reference(&page));
        // Lengths that exercise the non-multiple-of-8 remainder path.
        for len in [0usize, 1, 7, 8, 9, 63, 100] {
            assert_eq!(content_hash(&page[..len]), reference(&page[..len]));
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

    #[test]
    fn has_cached_hash_tracks_the_memo_cache() {
        let mut m = PhysMemory::new(2);
        m.write_byte(PhysAddr(7), 0x42);
        assert!(!m.has_cached_hash(FrameId(0)));
        let h = m.hash_page(FrameId(0));
        assert!(m.has_cached_hash(FrameId(0)));
        assert_eq!(h, content_hash(m.page(FrameId(0))));
        // A later write invalidates the memoized value like any other.
        m.write_byte(PhysAddr(8), 1);
        assert!(!m.has_cached_hash(FrameId(0)));
        assert_eq!(m.hash_page(FrameId(0)), content_hash(m.page(FrameId(0))));
        // Lazy-zero frames are always "cached" (the hash is a constant).
        assert!(m.has_cached_hash(FrameId(1)));
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
