//! The TLB against a reference model: the straightforward design it
//! replaced, one `BTreeMap` index per page size plus a `Vec` of fill
//! order that evicts with `remove(0)` and invalidates with `retain`.
//! Seeded sequences of fills, lookups, invalidations, flushes and
//! save→load→continue steps drive both; every lookup, every evicted
//! entry, every counter and every snapshot image must agree.

use std::collections::BTreeMap;

use vusion_mem::{FrameId, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};
use vusion_mmu::{Pte, PteFlags, Tlb, TlbEntry};
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};
use vusion_snapshot::{Reader, Snapshot, Writer};

/// The flags random entries carry, with their architectural bit values
/// (the model serializes entries itself).
const FLAGS: [(PteFlags, u64); 6] = [
    (PteFlags::PRESENT, 1),
    (PteFlags::WRITABLE, 1 << 1),
    (PteFlags::USER, 1 << 2),
    (PteFlags::NO_CACHE, 1 << 4),
    (PteFlags::ACCESSED, 1 << 5),
    (PteFlags::DIRTY, 1 << 6),
];

fn pte_bits(pte: Pte) -> u64 {
    FLAGS
        .iter()
        .filter(|(f, _)| pte.has(*f))
        .fold(pte.frame().0 << 12, |acc, (_, bit)| acc | bit)
}

fn random_pte(rng: &mut StdRng) -> Pte {
    let flags = FLAGS
        .iter()
        .filter(|_| rng.random_bool(0.5))
        .fold(PteFlags::NONE, |acc, (f, _)| acc | *f);
    Pte::new(FrameId(rng.random_range(0..1u64 << 20)), flags)
}

/// The reference TLB.
struct Model {
    cap_4k: usize,
    cap_2m: usize,
    map_4k: BTreeMap<u64, Pte>,
    fifo_4k: Vec<u64>,
    map_2m: BTreeMap<u64, Pte>,
    fifo_2m: Vec<u64>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    flushes: u64,
}

impl Model {
    fn new(cap_4k: usize, cap_2m: usize) -> Self {
        Self {
            cap_4k,
            cap_2m,
            map_4k: BTreeMap::new(),
            fifo_4k: Vec::new(),
            map_2m: BTreeMap::new(),
            fifo_2m: Vec::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
            flushes: 0,
        }
    }

    fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        if let Some(&pte) = self.map_2m.get(&(va.0 / HUGE_PAGE_SIZE)) {
            self.hits += 1;
            return Some(TlbEntry { pte, huge: true });
        }
        if let Some(&pte) = self.map_4k.get(&va.page()) {
            self.hits += 1;
            return Some(TlbEntry { pte, huge: false });
        }
        self.misses += 1;
        None
    }

    fn fill(&mut self, va: VirtAddr, entry: TlbEntry) -> Option<TlbEntry> {
        let (map, fifo, cap, key) = if entry.huge {
            (
                &mut self.map_2m,
                &mut self.fifo_2m,
                self.cap_2m,
                va.0 / HUGE_PAGE_SIZE,
            )
        } else {
            (&mut self.map_4k, &mut self.fifo_4k, self.cap_4k, va.page())
        };
        if map.insert(key, entry.pte).is_none() {
            fifo.push(key);
            if fifo.len() > cap {
                let evict = fifo.remove(0);
                return map.remove(&evict).map(|pte| TlbEntry {
                    pte,
                    huge: entry.huge,
                });
            }
        }
        None
    }

    fn resident(&self, va: VirtAddr, huge: bool) -> bool {
        if huge {
            self.map_2m.contains_key(&(va.0 / HUGE_PAGE_SIZE))
        } else {
            self.map_4k.contains_key(&va.page())
        }
    }

    fn invalidate(&mut self, va: VirtAddr) {
        self.invalidations += 1;
        if self.map_4k.remove(&va.page()).is_some() {
            self.fifo_4k.retain(|&k| k != va.page());
        }
        let hk = va.0 / HUGE_PAGE_SIZE;
        if self.map_2m.remove(&hk).is_some() {
            self.fifo_2m.retain(|&k| k != hk);
        }
    }

    fn flush(&mut self) {
        self.flushes += 1;
        self.map_4k.clear();
        self.fifo_4k.clear();
        self.map_2m.clear();
        self.fifo_2m.clear();
    }

    /// Resident entries' bits, sorted: what `Tlb::entries` must yield in
    /// some order.
    fn entry_bits(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .map_4k
            .values()
            .chain(self.map_2m.values())
            .map(|&p| pte_bits(p))
            .collect();
        v.sort_unstable();
        v
    }

    fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.cap_4k);
        w.usize(self.cap_2m);
        for (map, fifo) in [(&self.map_4k, &self.fifo_4k), (&self.map_2m, &self.fifo_2m)] {
            w.usize(fifo.len());
            for k in fifo {
                w.u64(*k);
                w.u64(pte_bits(map[k]));
            }
        }
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.invalidations);
        w.u64(self.flushes);
        w.into_bytes()
    }
}

fn save(t: &Tlb) -> Vec<u8> {
    let mut w = Writer::new();
    t.save(&mut w);
    w.into_bytes()
}

fn entry_bits(t: &Tlb) -> Vec<u64> {
    let mut v: Vec<u64> = t.entries().map(|e| pte_bits(e.pte)).collect();
    v.sort_unstable();
    v
}

/// How often a run met the cases a FIFO TLB can get wrong.
#[derive(Default)]
struct Seen {
    refills: u64,
    /// Evictions from the 4 KiB and the 2 MiB array.
    evictions: [u64; 2],
    absent_invalidations: u64,
    restores: u64,
}

impl Seen {
    fn add(&mut self, o: Seen) {
        self.refills += o.refills;
        self.evictions[0] += o.evictions[0];
        self.evictions[1] += o.evictions[1];
        self.absent_invalidations += o.absent_invalidations;
        self.restores += o.restores;
    }

    fn assert_all_met(&self) {
        assert!(self.refills > 0, "no refill of a resident key");
        assert!(self.evictions[0] > 0, "no 4 KiB eviction");
        assert!(self.evictions[1] > 0, "no 2 MiB eviction");
        assert!(
            self.absent_invalidations > 0,
            "no invalidation of an absent key"
        );
        assert!(self.restores > 0, "no save→load→continue");
    }
}

/// One seeded run: `steps` random operations over a key space a few
/// times larger than each capacity, so refills of resident keys,
/// evictions and invalidations of absent keys all occur.
fn run(seed: u64, cap_4k: usize, cap_2m: usize, steps: usize) -> Seen {
    let mut seen = Seen::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tlb = Tlb::new(cap_4k, cap_2m);
    let mut model = Model::new(cap_4k, cap_2m);
    let pages = 2 * cap_4k as u64 + 3;
    let huge_pages = 2 * cap_2m as u64 + 3;
    for step in 0..steps {
        let huge = rng.random_bool(0.2);
        let va = if huge {
            VirtAddr(
                rng.random_range(0..huge_pages) * HUGE_PAGE_SIZE
                    + rng.random_range(0..512u64) * PAGE_SIZE,
            )
        } else {
            VirtAddr(rng.random_range(0..pages) * PAGE_SIZE + rng.random_range(0..PAGE_SIZE))
        };
        let ctx = format!("seed {seed} caps ({cap_4k}, {cap_2m}) step {step}");
        // Flushes are rare enough (about one per 2 × `cap_4k` fills) that
        // the arrays refill to capacity between them.
        let op = if rng.random_range(0..4 * cap_4k + 8) == 0 {
            100
        } else {
            rng.random_range(0..100u32)
        };
        match op {
            0..45 => {
                let entry = TlbEntry {
                    pte: random_pte(&mut rng),
                    huge,
                };
                seen.refills += u64::from(model.resident(va, huge));
                let evicted = model.fill(va, entry);
                seen.evictions[usize::from(huge)] += u64::from(evicted.is_some());
                assert_eq!(tlb.fill(va, entry), evicted, "{ctx}: fill");
            }
            45..80 => assert_eq!(tlb.lookup(va), model.lookup(va), "{ctx}: lookup"),
            80..98 => {
                seen.absent_invalidations +=
                    u64::from(!model.resident(va, false) && !model.resident(va, true));
                tlb.invalidate(va);
                model.invalidate(va);
            }
            100 => {
                tlb.flush();
                model.flush();
            }
            _ => {
                let image = save(&tlb);
                assert_eq!(image, model.save(), "{ctx}: save bytes");
                let mut restored = Tlb::new(1, 1);
                let mut r = Reader::new(&image);
                assert_eq!(restored.load(&mut r), Ok(()), "{ctx}: load");
                assert_eq!(r.finish(), Ok(()), "{ctx}: load leaves bytes");
                tlb = restored;
                seen.restores += 1;
            }
        }
        assert_eq!(tlb.stats(), (model.hits, model.misses), "{ctx}: stats");
        assert_eq!(
            tlb.event_counts(),
            (model.invalidations, model.flushes),
            "{ctx}: event counts"
        );
    }
    assert_eq!(entry_bits(&tlb), model.entry_bits(), "seed {seed}: entries");
    assert_eq!(save(&tlb), model.save(), "seed {seed}: final save bytes");
    seen
}

#[test]
fn matches_reference_at_tiny_capacities() {
    let mut seen = Seen::default();
    for seed in 0..48 {
        for (cap_4k, cap_2m) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)] {
            seen.add(run(seed, cap_4k, cap_2m, 400));
        }
    }
    seen.assert_all_met();
}

#[test]
fn matches_reference_at_moderate_capacities() {
    let mut seen = Seen::default();
    for seed in 0..8 {
        seen.add(run(0x7150 + seed, 16, 4, 4000));
        seen.add(run(0x7250 + seed, 100, 7, 6000));
    }
    seen.assert_all_met();
}

#[test]
fn matches_reference_at_skylake_capacity() {
    run(0x5c1a, 1536, 32, 30_000).assert_all_met();
}
