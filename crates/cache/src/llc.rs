//! Physically indexed set-associative LLC with true-LRU replacement.

use vusion_mem::{FrameId, PhysAddr, PAGE_SIZE};

/// Geometry of the simulated LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_size: u64,
}

impl LlcConfig {
    /// The paper's testbed: Intel Xeon E3-1240 v5, 8 MiB LLC, 8192 sets of
    /// 16 ways of 64-byte lines, 128 page colors.
    pub fn xeon_e3_1240_v5() -> Self {
        Self {
            sets: 8192,
            ways: 16,
            line_size: 64,
        }
    }

    /// A small geometry for fast unit tests (16 colors).
    pub fn tiny() -> Self {
        Self {
            sets: 1024,
            ways: 4,
            line_size: 64,
        }
    }

    /// Number of cache sets a 4 KiB page covers.
    pub fn sets_per_page(&self) -> usize {
        (PAGE_SIZE / self.line_size) as usize
    }

    /// Number of page colors: distinct mappings of pages onto set groups.
    pub fn colors(&self) -> usize {
        self.sets / self.sets_per_page()
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_size
    }
}

/// Whether an access hit or missed the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line was present.
    Hit,
    /// Line was absent and has been filled (possibly evicting LRU).
    Miss,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of hits.
    pub hits: u64,
    /// Number of misses.
    pub misses: u64,
    /// Number of evictions caused by fills.
    pub evictions: u64,
    /// Number of explicit flushes that actually removed a line.
    pub flushes: u64,
}

/// The simulated last-level cache.
pub struct Llc {
    cfg: LlcConfig,
    /// `sets × ways` global line indices (physical address / line size).
    /// Set `s` holds `lens[s]` lines at `lines[s * ways..]`, most recently
    /// used first; the rest of its ways are unused.
    lines: Vec<u64>,
    /// Resident lines per set.
    lens: Vec<usize>,
    stats: CacheStats,
}

impl Llc {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, set count or line
    /// size not a power of two, or pages smaller than one line group).
    pub fn new(cfg: LlcConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two() && cfg.ways > 0 && cfg.line_size.is_power_of_two(),
            "degenerate cache geometry"
        );
        assert!(
            cfg.sets.is_multiple_of(cfg.sets_per_page()),
            "sets must be a multiple of sets-per-page"
        );
        Self {
            cfg,
            lines: vec![0; cfg.sets * cfg.ways],
            lens: vec![0; cfg.sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The global line index of a physical address.
    fn line_of(&self, addr: PhysAddr) -> u64 {
        addr.0 >> self.cfg.line_size.trailing_zeros()
    }

    /// The set a global line index maps to.
    fn set_of(&self, line: u64) -> usize {
        (line & (self.cfg.sets as u64 - 1)) as usize
    }

    /// The set index a physical address maps to.
    pub fn set_index(&self, addr: PhysAddr) -> usize {
        self.set_of(self.line_of(addr))
    }

    /// The color of a physical frame: which group of sets its lines occupy.
    ///
    /// If the first line of two pages shares a set, all 64 lines do (§5.1),
    /// so the color is fully determined by the frame number.
    pub fn color_of(&self, frame: FrameId) -> usize {
        (frame.0 % self.cfg.colors() as u64) as usize
    }

    /// Accesses `addr`, updating LRU state; returns hit or miss.
    pub fn access(&mut self, addr: PhysAddr) -> CacheOutcome {
        self.access_evicting(addr).0
    }

    /// Like [`Self::access`], additionally reporting the global line index
    /// a capacity miss evicted (if any). State transitions are identical
    /// to `access` — this exists so the side-channel surface recorder can
    /// attribute evictions to the frames whose lines were displaced.
    /// The victim frame is `line * line_size / PAGE_SIZE`.
    pub fn access_evicting(&mut self, addr: PhysAddr) -> (CacheOutcome, Option<u64>) {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let ways = self.cfg.ways;
        let len = self.lens[set];
        let lines = &mut self.lines[set * ways..(set + 1) * ways];
        if let Some(pos) = lines[..len].iter().position(|&l| l == line) {
            lines[..=pos].rotate_right(1);
            self.stats.hits += 1;
            return (CacheOutcome::Hit, None);
        }
        let evicted = if len == ways {
            self.stats.evictions += 1;
            Some(lines[ways - 1])
        } else {
            None
        };
        let n = (len + 1).min(ways);
        self.lens[set] = n;
        lines[..n].rotate_right(1);
        lines[0] = line;
        self.stats.misses += 1;
        (CacheOutcome::Miss, evicted)
    }

    /// The line indices currently resident in `set` (MRU first). Used by
    /// snapshot-time occupancy walks; read-only.
    pub fn set_lines(&self, set: usize) -> &[u64] {
        let start = set * self.cfg.ways;
        &self.lines[start..start + self.lens[set]]
    }

    /// Checks presence without touching LRU state (attack helper mirroring a
    /// timing-only probe; real probes also access, so prefer [`Self::access`]
    /// in end-to-end attacks).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let line = self.line_of(addr);
        self.set_lines(self.set_of(line)).contains(&line)
    }

    /// Flushes one line (the `clflush` instruction).
    pub fn flush(&mut self, addr: PhysAddr) {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let start = set * self.cfg.ways;
        let len = self.lens[set];
        let lines = &mut self.lines[start..start + len];
        if let Some(pos) = lines.iter().position(|&l| l == line) {
            lines[pos..].rotate_left(1);
            self.lens[set] = len - 1;
            self.stats.flushes += 1;
        }
    }

    /// Flushes every line of a frame.
    pub fn flush_frame(&mut self, frame: FrameId) {
        for i in 0..(PAGE_SIZE / self.cfg.line_size) {
            self.flush(frame.base() + i * self.cfg.line_size);
        }
    }

    /// Invalidates the entire cache (used between experiment repetitions).
    pub fn clear(&mut self) {
        self.lens.fill(0);
    }

    /// Returns `ways` physical addresses, one per distinct frame of the
    /// given color, that all map to the same cache set as `target_set`:
    /// an **eviction set** (§5.1). Frames are chosen from `candidates`.
    ///
    /// Returns `None` if `candidates` does not contain enough frames of the
    /// right color.
    pub fn eviction_set(&self, target_set: usize, candidates: &[FrameId]) -> Option<Vec<PhysAddr>> {
        let line_in_page = (target_set % self.cfg.sets_per_page()) as u64 * self.cfg.line_size;
        let color = target_set / self.cfg.sets_per_page();
        let mut out = Vec::with_capacity(self.cfg.ways);
        for &f in candidates {
            if self.color_of(f) == color {
                let addr = f.base() + line_in_page;
                debug_assert_eq!(self.set_index(addr), target_set);
                out.push(addr);
                if out.len() == self.cfg.ways {
                    return Some(out);
                }
            }
        }
        None
    }
}

impl vusion_snapshot::Snapshot for Llc {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cfg.sets);
        w.usize(self.cfg.ways);
        w.u64(self.cfg.line_size);
        for set in 0..self.cfg.sets {
            // MRU-first line order is the LRU state; it travels verbatim.
            w.u64s(self.set_lines(set));
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.evictions);
        w.u64(self.stats.flushes);
    }

    /// Rejects a geometry other than this cache's, a set holding more
    /// than `ways` lines, a line stored in a set it does not map to and a
    /// line repeated within its set.
    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let Self {
            cfg,
            lines,
            lens,
            stats,
        } = self;
        if r.usize()? != cfg.sets || r.usize()? != cfg.ways || r.u64()? != cfg.line_size {
            return Err(SnapshotError::Corrupt("cache geometry mismatch"));
        }
        let set_mask = cfg.sets as u64 - 1;
        for (set, (row, len)) in lines
            .chunks_exact_mut(cfg.ways)
            .zip(lens.iter_mut())
            .enumerate()
        {
            let n = r.usize()?;
            if n > cfg.ways {
                return Err(SnapshotError::Corrupt(
                    "cache set holds more lines than ways",
                ));
            }
            for i in 0..n {
                let line = r.u64()?;
                if (line & set_mask) as usize != set || row[..i].contains(&line) {
                    return Err(SnapshotError::Corrupt("cache line misplaced or repeated"));
                }
                row[i] = line;
            }
            *len = n;
        }
        *stats = CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            flushes: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        Llc::new(LlcConfig::tiny())
    }

    #[test]
    fn snapshot_round_trips_every_field() {
        let mut src = tiny();
        let stride = src.config().sets as u64 * src.config().line_size;
        for i in 0..6 {
            src.access(PhysAddr(i * stride + 64));
        }
        src.access(PhysAddr(4096));
        src.stats = CacheStats {
            hits: 11,
            misses: 12,
            evictions: 13,
            flushes: 14,
        };
        let (a, b) = vusion_snapshot::resave(&src, &mut tiny()).expect("resave");
        assert_eq!(a, b);
    }

    /// A crafted stream for the tiny geometry: set 1 holds `lines` (MRU
    /// first), every other set is empty, counters are zero.
    fn stream(lines: &[u64]) -> Vec<u8> {
        let cfg = LlcConfig::tiny();
        let mut w = vusion_snapshot::Writer::new();
        w.usize(cfg.sets);
        w.usize(cfg.ways);
        w.u64(cfg.line_size);
        for set in 0..cfg.sets {
            w.u64s(if set == 1 { lines } else { &[] });
        }
        for _ in 0..4 {
            w.u64(0);
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<Llc, vusion_snapshot::SnapshotError> {
        use vusion_snapshot::Snapshot;
        let mut c = tiny();
        c.load(&mut vusion_snapshot::Reader::new(bytes))?;
        Ok(c)
    }

    #[test]
    fn load_accepts_a_possible_stream() {
        let c = load(&stream(&[1, 1025, 2049, 3073])).expect("load");
        assert_eq!(c.set_lines(1), &[1, 1025, 2049, 3073]);
    }

    #[test]
    fn load_rejects_impossible_streams() {
        use vusion_snapshot::SnapshotError::Corrupt;
        for (what, lines) in [
            (
                "six lines in a 4-way set",
                vec![1, 1025, 2049, 3073, 4097, 5121],
            ),
            ("a repeated line", vec![1, 1025, 1]),
            ("a line of another set", vec![2]),
        ] {
            assert!(
                matches!(load(&stream(&lines)), Err(Corrupt(_))),
                "accepted {what}"
            );
        }
    }

    #[test]
    fn paper_geometry_has_128_colors() {
        let cfg = LlcConfig::xeon_e3_1240_v5();
        assert_eq!(cfg.colors(), 128);
        assert_eq!(cfg.sets_per_page(), 64);
        assert_eq!(cfg.capacity(), 8 * 1024 * 1024);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(PhysAddr(0)), CacheOutcome::Miss);
        assert_eq!(c.access(PhysAddr(0)), CacheOutcome::Hit);
        assert_eq!(c.access(PhysAddr(32)), CacheOutcome::Hit, "same line");
        assert_eq!(c.access(PhysAddr(64)), CacheOutcome::Miss, "next line");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        let ways = c.config().ways as u64;
        let stride = c.config().sets as u64 * c.config().line_size;
        // Fill one set completely, then one more: the first line must go.
        for i in 0..=ways {
            assert_eq!(c.access(PhysAddr(i * stride)), CacheOutcome::Miss);
        }
        assert_eq!(
            c.access(PhysAddr(0)),
            CacheOutcome::Miss,
            "LRU line evicted"
        );
        // Re-inserting line 0 evicted line 1 (now the LRU); line 2 survives.
        assert_eq!(
            c.access(PhysAddr(2 * stride)),
            CacheOutcome::Hit,
            "younger line survives"
        );
    }

    #[test]
    fn flush_removes_line() {
        let mut c = tiny();
        c.access(PhysAddr(128));
        assert!(c.contains(PhysAddr(128)));
        c.flush(PhysAddr(128));
        assert!(!c.contains(PhysAddr(128)));
        assert_eq!(c.access(PhysAddr(128)), CacheOutcome::Miss);
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn flush_frame_removes_all_lines() {
        let mut c = tiny();
        let f = FrameId(3);
        for i in 0..64u64 {
            c.access(f.base() + i * 64);
        }
        c.flush_frame(f);
        for i in 0..64u64 {
            assert!(!c.contains(f.base() + i * 64));
        }
    }

    #[test]
    fn colors_repeat_with_period() {
        let c = tiny();
        let colors = c.config().colors();
        assert_eq!(c.color_of(FrameId(0)), c.color_of(FrameId(colors as u64)));
        assert_ne!(c.color_of(FrameId(0)), c.color_of(FrameId(1)));
    }

    #[test]
    fn pages_cover_consecutive_sets() {
        // The §5.1 observation: if the first lines of two pages share a set,
        // all 64 lines do.
        let c = tiny();
        let (a, b) = (FrameId(0), FrameId(c.config().colors() as u64));
        assert_eq!(c.set_index(a.base()), c.set_index(b.base()));
        for i in 0..64u64 {
            assert_eq!(
                c.set_index(a.base() + i * 64),
                c.set_index(b.base() + i * 64)
            );
        }
    }

    #[test]
    fn eviction_set_covers_target_set() {
        let mut c = tiny();
        let colors = c.config().colors() as u64;
        let ways = c.config().ways;
        // Candidate frames of every color, several rounds worth — starting
        // past the victim frame so the eviction set never aliases it.
        let candidates: Vec<FrameId> = (colors..colors * (ways as u64 + 2)).map(FrameId).collect();
        let target_set = 5 * c.config().sets_per_page() + 17; // Color 5, line 17.
        let ev = c
            .eviction_set(target_set, &candidates)
            .expect("enough candidates");
        assert_eq!(ev.len(), ways);
        for &a in &ev {
            assert_eq!(c.set_index(a), target_set);
        }
        // Priming with the eviction set evicts a victim line in that set.
        let victim = FrameId(5).base() + 17 * 64;
        assert_eq!(c.set_index(victim), target_set);
        c.access(victim);
        for &a in &ev {
            c.access(a);
        }
        assert!(!c.contains(victim), "PRIME must evict the victim line");
    }

    #[test]
    fn eviction_set_fails_without_candidates() {
        let c = tiny();
        let candidates: Vec<FrameId> = vec![FrameId(1)]; // Wrong color for set 0.
        assert!(c.eviction_set(0, &candidates).is_none());
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = tiny();
        c.access(PhysAddr(0));
        c.clear();
        assert!(!c.contains(PhysAddr(0)));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = tiny();
        c.access(PhysAddr(0));
        c.access(PhysAddr(0));
        c.access(PhysAddr(64));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }
}
