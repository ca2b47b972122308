//! The LLC against a reference model: the straightforward design it
//! replaced, one `Vec` of line indices per set, most recently used
//! first, updated with `remove`/`insert(0, …)`/`pop`. Seeded sequences
//! of accesses, flushes, frame flushes, clears and save→load→continue
//! steps drive both; every outcome, every evicted line, every counter,
//! every set's contents and every snapshot image must agree.

use vusion_cache::{CacheOutcome, CacheStats, Llc, LlcConfig};
use vusion_mem::{FrameId, PhysAddr, PAGE_SIZE};
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};
use vusion_snapshot::{Reader, Snapshot, Writer};

/// The reference LLC.
struct Model {
    cfg: LlcConfig,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Model {
    fn new(cfg: LlcConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.sets],
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, addr: PhysAddr) -> usize {
        ((addr.0 / self.cfg.line_size) % self.cfg.sets as u64) as usize
    }

    fn access_evicting(&mut self, addr: PhysAddr) -> (CacheOutcome, Option<u64>) {
        let line = addr.0 / self.cfg.line_size;
        let ways = self.cfg.ways;
        let set = self.set_index(addr);
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|&l| l == line) {
            let l = lines.remove(pos);
            lines.insert(0, l);
            self.stats.hits += 1;
            (CacheOutcome::Hit, None)
        } else {
            lines.insert(0, line);
            let evicted = if lines.len() > ways {
                self.stats.evictions += 1;
                lines.pop()
            } else {
                None
            };
            self.stats.misses += 1;
            (CacheOutcome::Miss, evicted)
        }
    }

    fn contains(&self, addr: PhysAddr) -> bool {
        self.sets[self.set_index(addr)].contains(&(addr.0 / self.cfg.line_size))
    }

    fn flush(&mut self, addr: PhysAddr) {
        let line = addr.0 / self.cfg.line_size;
        let set = self.set_index(addr);
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|&l| l == line) {
            lines.remove(pos);
            self.stats.flushes += 1;
        }
    }

    fn flush_frame(&mut self, frame: FrameId) {
        for i in 0..(PAGE_SIZE / self.cfg.line_size) {
            self.flush(frame.base() + i * self.cfg.line_size);
        }
    }

    fn clear(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.cfg.sets);
        w.usize(self.cfg.ways);
        w.u64(self.cfg.line_size);
        for set in &self.sets {
            w.u64s(set);
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.evictions);
        w.u64(self.stats.flushes);
        w.into_bytes()
    }
}

fn save(c: &Llc) -> Vec<u8> {
    let mut w = Writer::new();
    c.save(&mut w);
    w.into_bytes()
}

/// One seeded run over lines a few times the cache's capacity, spread
/// over `hot_sets` sets so sets fill, evict, hit and flush. Returns the
/// final counters and the number of save→load→continue steps.
fn run(seed: u64, cfg: LlcConfig, hot_sets: u64, steps: usize) -> (CacheStats, u64) {
    let mut restores = 0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut llc = Llc::new(cfg);
    let mut model = Model::new(cfg);
    let lines_per_set = 2 * cfg.ways as u64 + 2;
    let stride = cfg.sets as u64 * cfg.line_size;
    for step in 0..steps {
        let set = rng.random_range(0..hot_sets) * (cfg.sets as u64 / hot_sets);
        let addr = PhysAddr(
            rng.random_range(0..lines_per_set) * stride
                + set * cfg.line_size
                + rng.random_range(0..cfg.line_size),
        );
        let ctx = format!("seed {seed} {cfg:?} step {step}");
        // Clears are rare enough that the hot sets fill between them.
        let op = if rng.random_range(0..8 * hot_sets * cfg.ways as u64) == 0 {
            100
        } else {
            rng.random_range(0..100u32)
        };
        match op {
            0..70 => assert_eq!(
                llc.access_evicting(addr),
                model.access_evicting(addr),
                "{ctx}: access"
            ),
            70..85 => assert_eq!(llc.contains(addr), model.contains(addr), "{ctx}: contains"),
            85..95 => {
                llc.flush(addr);
                model.flush(addr);
            }
            95..98 => {
                llc.flush_frame(addr.frame());
                model.flush_frame(addr.frame());
            }
            100 => {
                llc.clear();
                model.clear();
            }
            _ => {
                let image = save(&llc);
                assert_eq!(image, model.save(), "{ctx}: save bytes");
                let mut restored = Llc::new(cfg);
                let mut r = Reader::new(&image);
                assert_eq!(restored.load(&mut r), Ok(()), "{ctx}: load");
                assert_eq!(r.finish(), Ok(()), "{ctx}: load leaves bytes");
                llc = restored;
                restores += 1;
            }
        }
        assert_eq!(llc.stats(), model.stats, "{ctx}: stats");
        let s = model.set_index(addr);
        assert_eq!(llc.set_index(addr), s, "{ctx}: set index");
        assert_eq!(llc.set_lines(s), &model.sets[s][..], "{ctx}: set lines");
    }
    for s in 0..cfg.sets {
        assert_eq!(llc.set_lines(s), &model.sets[s][..], "seed {seed}: set {s}");
    }
    assert_eq!(save(&llc), model.save(), "seed {seed}: final save bytes");
    (llc.stats(), restores)
}

/// Every counter moved and some run restored: the runs met hits,
/// capacity evictions, flushes of resident lines and save→load→continue.
fn assert_all_met(runs: &[(CacheStats, u64)]) {
    let sum = |f: fn(&(CacheStats, u64)) -> u64| runs.iter().map(f).sum::<u64>();
    assert!(sum(|r| r.0.hits) > 0, "no hit");
    assert!(sum(|r| r.0.evictions) > 0, "no eviction");
    assert!(sum(|r| r.0.flushes) > 0, "no flush of a resident line");
    assert!(sum(|r| r.1) > 0, "no save→load→continue");
}

fn geometry(sets: usize, ways: usize) -> LlcConfig {
    LlcConfig {
        sets,
        ways,
        line_size: 64,
    }
}

#[test]
fn matches_reference_at_small_associativity() {
    for ways in [1, 2, 3] {
        let runs: Vec<_> = (0..24)
            .map(|seed| run(seed, geometry(64, ways), 4, 600))
            .collect();
        assert_all_met(&runs);
    }
}

#[test]
fn matches_reference_on_the_shipped_geometries() {
    let tiny: Vec<_> = (0..4)
        .map(|seed| run(0x11c + seed, LlcConfig::tiny(), 16, 6000))
        .collect();
    assert_all_met(&tiny);
    let xeon: Vec<_> = (0..4)
        .map(|seed| run(0x22c + seed, LlcConfig::xeon_e3_1240_v5(), 32, 6000))
        .collect();
    assert_all_met(&xeon);
}

/// `eviction_set` is a pure function of the geometry; it must pick the
/// same frames the reference set indexing would.
#[test]
fn eviction_sets_map_to_their_target() {
    let cfg = LlcConfig::tiny();
    let llc = Llc::new(cfg);
    let model = Model::new(cfg);
    let candidates: Vec<FrameId> = (0..256).map(FrameId).collect();
    for target in [0, 1, 63, 64, 500, cfg.sets - 1] {
        let set = llc
            .eviction_set(target, &candidates)
            .expect("enough candidates");
        assert_eq!(set.len(), cfg.ways);
        for a in set {
            assert_eq!(model.set_index(a), target);
        }
    }
}
