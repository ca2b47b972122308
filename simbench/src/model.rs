//! A cost model built from outside the program: per-call host costs of a
//! few layer primitives, calibrated on a workload's own end-of-round
//! memory image, multiplied by the deterministic counts of the measured
//! phase. What the model does not predict (its residual against the
//! measured wall time) is host time in layers nobody has calibrated.

use std::hint::black_box;
use std::time::Instant;

use vusion::mem::{FrameState, PhysMemory, RandomPool};
use vusion::prelude::*;

use crate::median;
use crate::rounds::{Counts, Sys};

/// Calibrated host nanoseconds per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// `PhysMemory::hash_page` on a frame whose memo is cold.
    pub hash_page_ns: f64,
    /// `PhysMemory::compare_pages` on neighbouring frames of the image.
    pub compare_pages_ns: f64,
    /// `PhysMemory::is_zero` on a frame whose memo is cold.
    pub is_zero_ns: f64,
    /// One order-0 `BuddyAllocator` alloc plus free.
    pub buddy_alloc_free_ns: f64,
    /// One `RandomPool` alloc plus free over the buddy allocator.
    pub random_pool_cycle_ns: f64,
    /// One `Llc::access` to a line of the image.
    pub llc_access_ns: f64,
}

/// Repetitions per primitive; the median is kept.
const REPS: usize = 5;

/// Median host nanoseconds per call of `f`, which makes `calls` calls.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    median((0..REPS).map(|_| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64 / calls.max(1) as f64
    }))
}

/// Calibrates [`Costs`] on `sys`'s memory image. The system is used up:
/// it is rewritten, its allocator cycled and its LLC disturbed.
pub fn calibrate(sys: &mut Sys, seed: u64) -> Costs {
    let frames: Vec<FrameId> = {
        let mem = sys.machine.mem();
        (0..mem.frame_count() as u64)
            .map(FrameId)
            .filter(|&f| mem.info(f).state == FrameState::Allocated)
            .collect()
    };
    let pages: Vec<[u8; PAGE_SIZE as usize]> =
        frames.iter().map(|&f| *sys.machine.mem().page(f)).collect();
    let machine = &mut sys.machine;
    let mut c = Costs::default();
    // Rewriting a frame's own content bumps its write generation, so the
    // probe misses the memo, as a scan of a dirtied page would.
    let mut cold = |probe: &dyn Fn(&PhysMemory, FrameId) -> u64| -> f64 {
        median((0..REPS).map(|_| {
            for (&f, p) in frames.iter().zip(&pages) {
                machine.mem_mut().write_page(f, p);
            }
            let mem = machine.mem();
            let t = Instant::now();
            for &f in &frames {
                black_box(probe(mem, f));
            }
            t.elapsed().as_nanos() as f64 / frames.len().max(1) as f64
        }))
    };
    c.hash_page_ns = cold(&|m, f| m.hash_page(f));
    c.is_zero_ns = cold(&|m, f| u64::from(m.is_zero(f)));
    let mem = machine.mem();
    c.compare_pages_ns = per_call(frames.len().saturating_sub(1), || {
        for pair in frames.windows(2) {
            black_box(mem.compare_pages(pair[0], pair[1]));
        }
    });

    const CYCLES: usize = 20_000;
    let buddy = machine.buddy_mut();
    c.buddy_alloc_free_ns = per_call(CYCLES, || {
        for _ in 0..CYCLES {
            if let Ok(f) = buddy.alloc_order(0) {
                let _ = buddy.free_order(black_box(f), 0);
            }
        }
    });
    let mut pool = RandomPool::new(256, buddy, seed);
    c.random_pool_cycle_ns = per_call(CYCLES, || {
        for _ in 0..CYCLES {
            if let Ok(f) = pool.alloc_random(buddy) {
                let _ = pool.free_random(black_box(f), buddy);
            }
        }
    });

    let lines: Vec<PhysAddr> = frames
        .iter()
        .flat_map(|f| {
            (0..PAGE_SIZE / 64)
                .step_by(7)
                .map(move |l| PhysAddr(f.0 * PAGE_SIZE + l * 64))
        })
        .collect();
    let llc = machine.llc_mut();
    c.llc_access_ns = per_call(lines.len(), || {
        for &a in &lines {
            black_box(llc.access(a));
        }
    });
    c
}

/// Predicted host seconds per layer for one round's measured phase:
/// each calibrated cost times the count that drives it.
///
/// * `mem`: one hash and one zero check per page a scanner visited and
///   did not skip as clean, one page compare per merge or fake merge, one buddy cycle per
///   allocation/free pair, and (VUsion engines) one random-pool cycle per
///   merge, fake merge or trapped fault.
/// * `cache`: one LLC access per LLC hit or miss.
pub fn predict(c: &Costs, counts: &Counts) -> Vec<(&'static str, f64)> {
    let get = |e: &str, k: &str| counts.get(&format!("{e}.{k}")).copied().unwrap_or(0) as f64;
    let mut mem_ns = 0.0;
    let mut cache_ns = 0.0;
    for e in ["no_fusion", "ksm", "wpf", "vusion", "vusion_thp"] {
        let core = format!("core.{e}");
        let hashed = (get(&core, "pages_scanned") - get(&core, "pages_skipped_clean")).max(0.0);
        let merges = get(&core, "pages_merged") + get(&core, "pages_fake_merged");
        let mem = format!("mem.{e}");
        let buddy_cycles = (get(&mem, "buddy_allocs") + get(&mem, "buddy_frees")) / 2.0;
        let pool_cycles = if e.starts_with("vusion") {
            merges + get(&format!("kernel.{e}"), "faults_trapped")
        } else {
            0.0
        };
        mem_ns += hashed * (c.hash_page_ns + c.is_zero_ns)
            + merges * c.compare_pages_ns
            + buddy_cycles * c.buddy_alloc_free_ns
            + pool_cycles * c.random_pool_cycle_ns;
        let cache = format!("cache.{e}");
        cache_ns += (get(&cache, "llc_hits") + get(&cache, "llc_misses")) * c.llc_access_ns;
    }
    vec![("mem", mem_ns / 1e9), ("cache", cache_ns / 1e9)]
}
