//! Microbenchmarks of the core data structures and hot paths: page
//! hashing and comparison, the allocators (buddy / linear / randomized
//! pool), LLC accesses, the simulated access path (TLB hits, TLB-miss
//! walks, one image boot), the end-to-end fault path, full engine scans
//! (KSM / WPF / VUsion), and a whole-system snapshot plus restore.
//!
//! Plain self-timed harness (no external benchmark framework): each case
//! runs warm-up passes, then records per-sample wall-clock times and
//! reports min / mean / median per iteration.
//!
//! Besides printing a table, the harness writes `BENCH_micro.json` at the
//! repo root — the first entry in this repo's perf-trajectory files. The
//! previous run's numbers are preserved under a `"baseline"` key, so the
//! file always shows the current numbers next to the pre-optimization
//! ones and a reviewer can compute the speedup from one artifact.

use std::hint::black_box;
use std::time::Instant;
use vusion_cache::{Llc, LlcConfig};
use vusion_kernel::{Machine, MachineConfig, ScanGrant};
use vusion_mem::{
    BuddyAllocator, FrameAllocator, FrameId, LinearAllocator, PageType, PhysAddr, PhysMemory,
    RandomPool, VirtAddr,
};
use vusion_mmu::{Protection, Vma};
use vusion_obs::json::quote;

const SAMPLES: u32 = 20;
const WARMUP: u32 = 3;

/// One bench case's timing summary, in nanoseconds per iteration.
struct BenchResult {
    name: &'static str,
    min_ns: u64,
    mean_ns: u64,
    median_ns: u64,
}

fn bench(out: &mut Vec<BenchResult>, name: &'static str, mut f: impl FnMut()) {
    for _ in 0..WARMUP {
        f();
    }
    let mut times = Vec::with_capacity(SAMPLES as usize);
    for _ in 0..SAMPLES {
        #[expect(
            clippy::disallowed_methods,
            reason = "the micro bench measures host time, which never feeds simulation state"
        )]
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    let min_ns = times[0];
    let mean_ns = times.iter().sum::<u64>() / u64::from(SAMPLES);
    let mid = times.len() / 2;
    let median_ns = if times.len() % 2 == 0 {
        (times[mid - 1] + times[mid]) / 2
    } else {
        times[mid]
    };
    println!(
        "{name:<34} min {:>12} ns  mean {:>12} ns  median {:>12} ns  ({SAMPLES} samples)",
        min_ns, mean_ns, median_ns
    );
    out.push(BenchResult {
        name,
        min_ns,
        mean_ns,
        median_ns,
    });
}

/// Pages 0..4096 seeded so every page is unique in its first word.
fn seeded_mem() -> PhysMemory {
    let mut mem = PhysMemory::new(4096);
    for f in 0..4096u64 {
        mem.write_u64(PhysAddr(f * 4096), f.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    mem
}

fn bench_page_ops(out: &mut Vec<BenchResult>) {
    let mem = seeded_mem();
    // Memo hits: the warm-up passes hash each frame once, so the samples
    // time the write-generation lookup, not FNV-1a.
    bench(out, "hash_page_512_frames", || {
        let mut acc = 0u64;
        for f in 0..512u64 {
            acc ^= mem.hash_page(FrameId(f));
        }
        black_box(acc);
    });
    // Cold hashing: every iteration dirties the 512 frames, then one
    // `hash_stale` call (the scan pre-hash) hashes all of them.
    let mut cold = seeded_mem();
    let frames: Vec<FrameId> = (0..512u64).map(FrameId).collect();
    let mut round = 0u64;
    bench(out, "hash_stale_cold_512_frames", || {
        round += 1;
        for f in &frames {
            cold.write_u64(PhysAddr(f.0 * 4096 + 8), round);
        }
        black_box(cold.hash_stale(black_box(&frames)));
    });
    bench(out, "is_zero_512_frames", || {
        let mut n = 0usize;
        for f in 0..512u64 {
            n += usize::from(mem.is_zero(FrameId(f)));
        }
        black_box(n);
    });
    bench(out, "compare_pages_512_pairs", || {
        let mut n = 0usize;
        for f in 0..512u64 {
            n += (mem.compare_pages(FrameId(f), FrameId(f + 512)) == std::cmp::Ordering::Less)
                as usize;
        }
        black_box(n);
    });
}

fn bench_allocators(out: &mut Vec<BenchResult>) {
    bench(out, "buddy_alloc_free_1k", || {
        let mut a = BuddyAllocator::new(FrameId(0), 2048);
        let frames: Vec<_> = (0..1024).map(|_| a.alloc().expect("frame")).collect();
        for f in frames {
            a.free(f).expect("free");
        }
    });
    bench(out, "linear_reserve_release_256", || {
        let mut a = LinearAllocator::new(FrameId(0), 4096);
        let batch = a.reserve_batch(256, |_| false);
        for f in batch {
            a.free(f).expect("free");
        }
    });
    let mut buddy = BuddyAllocator::new(FrameId(0), 8192);
    let mut pool = RandomPool::new(2048, &mut buddy, 9);
    bench(out, "random_pool_cycle_1k", || {
        for _ in 0..1024 {
            let f = pool.alloc_random(&mut buddy).expect("frame");
            pool.free_random(f, &mut buddy).expect("free");
        }
    });
}

fn bench_llc(out: &mut Vec<BenchResult>) {
    let mut llc = Llc::new(LlcConfig::xeon_e3_1240_v5());
    bench(out, "llc_access_stream_4k_lines", || {
        for i in 0..4096u64 {
            black_box(llc.access(PhysAddr(i * 64)));
        }
    });
}

/// Host cost of the simulated access path (TLB, page walk, LLC and the
/// DRAM charges) on a NoFusion `guest_2g_scaled` guest: each iteration
/// makes 4,096 `System` accesses at seeded random lines of `pages`
/// resident 4 KiB pages. 1,024 pages fit the 1,536-entry TLB, so every
/// access hits it; 4,096 pages do not, so most accesses walk the tables.
/// `boot_small_image` builds a fresh guest and boots one small image
/// into it: 64 timed stores per booted page.
fn bench_access_path(out: &mut Vec<BenchResult>) {
    use vusion_core::EngineKind;
    use vusion_rng::rngs::StdRng;
    use vusion_rng::{RngExt, SeedableRng};
    use vusion_workloads::images::ImageSpec;
    const BASE: u64 = 0x1000_0000;
    let resident = |pages: u64| {
        let mut sys = EngineKind::NoFusion.build_system(MachineConfig::guest_2g_scaled());
        let pid = sys.machine.spawn("t").expect("spawn");
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), pages, Protection::rw()));
        for pg in 0..pages {
            sys.write(pid, VirtAddr(BASE + pg * 4096), 1);
        }
        let mut rng = StdRng::seed_from_u64(pages);
        let lines: Vec<VirtAddr> = (0..4096)
            .map(|_| {
                let pg = rng.random_range(0..pages);
                VirtAddr(BASE + pg * 4096 + rng.random_range(0..64u64) * 64)
            })
            .collect();
        (sys, pid, lines)
    };
    let (mut sys, pid, lines) = resident(1024);
    bench(out, "tlb_hit_load_4k", || {
        for &va in &lines {
            black_box(sys.read(pid, va));
        }
    });
    bench(out, "tlb_hit_store_4k", || {
        for &va in &lines {
            sys.write(pid, va, 2);
        }
    });
    let (mut sys, pid, lines) = resident(4096);
    bench(out, "tlb_miss_walk_4k", || {
        for &va in &lines {
            black_box(sys.read(pid, va));
        }
    });
    bench(out, "boot_small_image", || {
        let mut sys = EngineKind::NoFusion.build_system(MachineConfig::guest_2g_scaled());
        black_box(ImageSpec::small(0, 1).boot(&mut sys, "vm"));
    });
}

fn bench_fault_path(out: &mut Vec<BenchResult>) {
    bench(out, "demand_zero_fault_and_map", || {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 128, Protection::rw()));
        for i in 0..128u64 {
            let va = VirtAddr(0x10000 + i * 4096);
            let f = m.read(pid, va).expect_err("faults");
            m.default_fault(&f);
            black_box(m.read(pid, va).expect("mapped"));
        }
    });
    {
        let mut m = Machine::new(MachineConfig::test_small());
        bench(out, "frame_alloc_with_metadata", || {
            let f = m.alloc_frame(PageType::Anon).expect("frame");
            black_box(f);
            m.put_frame(f).expect("put");
        });
    }
}

/// Times the three engine scans, then — with timing done — enables the
/// observability layer and takes one instrumented scan per engine so the
/// JSON artifact carries a metrics snapshot next to the timings. Tracing
/// is off while the samples are collected, preserving the perf gate.
fn bench_engine_scans(out: &mut Vec<BenchResult>) -> Vec<(&'static str, String)> {
    use vusion_core::{Ksm, KsmConfig, VUsion, VUsionConfig, Wpf, WpfConfig};
    use vusion_kernel::{FusionPolicy, System};
    let mut metrics = Vec::new();
    {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(0x10000), 512);
        let mut sys = System::new(m, Ksm::new(KsmConfig::default()));
        // Unique pages: every visited page stays a candidate (checksum +
        // unstable-tree traffic each round) instead of settling into the
        // merged fast path, so the bench measures recurring per-page work.
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        bench(out, "scan_visit_100_pages_ksm", || {
            black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        });
        sys.machine.enable_tracing();
        black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        metrics.push(("ksm", sys.metrics_snapshot().to_json()));
    }
    {
        // Unique pages so a pass hashes all 512 candidates and merges none.
        let cfg = MachineConfig::test_small().with_reserved_top(256);
        let mut m = Machine::new(cfg);
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        let wpf = Wpf::new(&m, WpfConfig::default()).expect("reserved region");
        let mut sys = System::new(m, wpf);
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        bench(out, "scan_full_pass_wpf_512", || {
            black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        });
        sys.machine.enable_tracing();
        black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        metrics.push(("wpf", sys.metrics_snapshot().to_json()));
    }
    {
        // Re-randomization ablated so the bench isolates the scan itself
        // (candidate enumeration + per-page state checks), not the
        // round-boundary page copies.
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(0x10000), 512);
        let vusion = VUsion::new(
            &mut m,
            VUsionConfig {
                pool_frames: 1024,
                ablate_rerandomize: true,
                ..Default::default()
            },
        );
        let mut sys = System::new(m, vusion);
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        // Let the engine reach steady state (all candidates fake-merged)
        // before timing, so samples measure the recurring scan cost.
        for _ in 0..8 {
            sys.policy.scan(&mut sys.machine, ScanGrant::default());
        }
        bench(out, "scan_visit_100_pages_vusion", || {
            black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        });
        sys.machine.enable_tracing();
        black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        metrics.push(("vusion", sys.metrics_snapshot().to_json()));
    }
    metrics
}

/// Cold passes: every iteration dirties all 512 candidate pages (one
/// byte each, content unchanged — the write bumps the frame's
/// generation, so every memoized hash goes cold), then runs one scan
/// that must re-hash the lot. VUsion is omitted: its steady state
/// write-protects the candidates, so a dirtying workload would measure
/// the CoW fault path, not the pre-hash (which is the same shared code
/// for all three engines).
fn bench_scan_cold(out: &mut Vec<BenchResult>) {
    use vusion_core::{Ksm, KsmConfig, Wpf, WpfConfig};
    use vusion_kernel::{FusionPolicy, System};
    // Re-writing page i's distinguishing value at a fixed offset keeps
    // the 512 contents unique (no merges ever happen), while still
    // invalidating the hash memo every iteration.
    fn dirty_all(m: &mut Machine, pid: vusion_kernel::Pid) {
        for i in 0..512u64 {
            let va = VirtAddr(0x10000 + i * 4096 + 2048);
            m.write(pid, va, (i % 251) as u8 + 1).expect("mapped");
        }
    }
    {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(0x10000), 512);
        let ksm = Ksm::new(KsmConfig {
            pages_per_scan: 512,
            ..Default::default()
        });
        let mut sys = System::new(m, ksm);
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        bench(out, "scan_cold_visit_512_ksm", || {
            dirty_all(&mut sys.machine, pid);
            black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        });
    }
    {
        let cfg = MachineConfig::test_small().with_reserved_top(256);
        let mut m = Machine::new(cfg);
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        let wpf = Wpf::new(&m, WpfConfig::default()).expect("reserved region");
        let mut sys = System::new(m, wpf);
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        bench(out, "scan_cold_pass_512_wpf", || {
            dirty_all(&mut sys.machine, pid);
            black_box(sys.policy.scan(&mut sys.machine, ScanGrant::default()));
        });
    }
}

/// The grant of the `scan_pass_throttled_*_b64` rows: a hard 64-page
/// budget per wake, with nothing deferred.
const BUDGET_64: ScanGrant = ScanGrant {
    budget: Some(64),
    defer_alloc: false,
};

/// Per-wake cost of a governor-throttled scan: the same 512-page
/// workloads as the full-scan benches, but every wake gets a hard page
/// budget ([`BUDGET_64`]) — it visits or hashes only 64 pages and, for
/// WPF, parks a resumable pass cursor for the next wake. Medians land
/// next to the unthrottled `scan_*` rows in the artifact, so a reviewer
/// can read the budget's per-wake saving straight off one file.
fn bench_scan_throttled(out: &mut Vec<BenchResult>) {
    use vusion_core::{Ksm, KsmConfig, VUsion, VUsionConfig, Wpf, WpfConfig};
    use vusion_kernel::{FusionPolicy, System};
    {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(0x10000), 512);
        let ksm = Ksm::new(KsmConfig {
            pages_per_scan: 512,
            ..Default::default()
        });
        let mut sys = System::new(m, ksm);
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        bench(out, "scan_pass_throttled_ksm_b64", || {
            black_box(sys.policy.scan(&mut sys.machine, BUDGET_64));
        });
    }
    {
        // Nothing dirties the pages between wakes: the first 8 budgeted
        // wakes hash 64 pages each and suspend, the 8th completes the
        // pass (no merges), and from then on every wake takes the
        // all-clean fast path, re-checking each candidate's leaf and
        // dirty stamp without hashing.
        let cfg = MachineConfig::test_small().with_reserved_top(256);
        let mut m = Machine::new(cfg);
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        let wpf = Wpf::new(&m, WpfConfig::default()).expect("reserved region");
        let mut sys = System::new(m, wpf);
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        bench(out, "scan_pass_throttled_wpf_b64", || {
            black_box(sys.policy.scan(&mut sys.machine, BUDGET_64));
        });
    }
    {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 512, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(0x10000), 512);
        let vusion = VUsion::new(
            &mut m,
            VUsionConfig {
                pool_frames: 1024,
                ablate_rerandomize: true,
                ..Default::default()
            },
        );
        let mut sys = System::new(m, vusion);
        for i in 0..512u64 {
            let byte_off = i / 251;
            let value = (i % 251) as u8 + 1;
            sys.write(pid, VirtAddr(0x10000 + i * 4096 + byte_off), value);
        }
        for _ in 0..8 {
            sys.policy.scan(&mut sys.machine, ScanGrant::default());
        }
        bench(out, "scan_pass_throttled_vusion_b64", || {
            black_box(sys.policy.scan(&mut sys.machine, BUDGET_64));
        });
    }
}

/// One `System::snapshot` plus one `System::restore` of the image simbench's
/// `traced_replay` workload seals: three small guests of distinct families
/// booted on a `guest_2g_scaled` KSM host (about 11.6 MB sealed). The
/// restore target is a second system of the same config, built once
/// outside the timing.
fn bench_snapshot(out: &mut Vec<BenchResult>) {
    use vusion_core::EngineKind;
    use vusion_workloads::images::ImageSpec;
    let cfg = MachineConfig::guest_2g_scaled();
    let mut sys = EngineKind::Ksm.build_system(cfg);
    for family in 0..3 {
        ImageSpec::small(family, family + 1).boot(&mut sys, &format!("vm{family}"));
    }
    let mut target = EngineKind::Ksm.build_system(cfg);
    bench(out, "snapshot_save_restore_3vm", || {
        let snap = sys.snapshot();
        target.restore(&snap).expect("restore");
        black_box(&target);
    });
}

/// Full-workspace static-contract pass (DESIGN.md §11): lex every
/// workspace source file and run the per-file rule families over its
/// tokens. The row keeps the analyzer honest as the
/// tree grows: bench_gate holds `vlint_*` benches to a generous absolute
/// wall-time ceiling instead of the ratio gate (the linter's cost
/// scales with tree size, so ratio-vs-baseline would flag every PR that
/// adds code).
fn bench_vlint(out: &mut Vec<BenchResult>) {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    bench(out, "vlint_check_workspace", || {
        let findings = vlint::scan_root(root).expect("workspace sources readable");
        black_box(findings.len());
    });
}

/// The host the numbers were measured on, as a JSON object: the CPU
/// model from `/proc/cpuinfo` (`"unknown"` where that is unreadable) and
/// the parallelism the OS grants this process. Medians are only
/// comparable between runs on matching hosts.
fn host_facts() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu_model\": {}, \"available_parallelism\": {cores}}}",
        quote(&model)
    )
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a git checkout.
fn git_rev(repo_root: &str) -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo_root)
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Extracts the previous run's `"baseline"` object (balanced-brace scan —
/// fine here because bench names and git revs never contain braces). The
/// very first post-change run instead adopts the entire previous file as
/// the baseline, which is how the pre-optimization numbers get pinned.
fn carry_baseline(old: &str) -> Option<String> {
    let key = "\"baseline\":";
    if let Some(pos) = old.find(key) {
        let rest = old[pos + key.len()..].trim_start();
        if rest.starts_with('{') {
            let mut depth = 0usize;
            for (i, c) in rest.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(rest[..=i].to_string());
                        }
                    }
                    _ => {}
                }
            }
        }
        // `"baseline": null` — previous run was itself the baseline run.
    }
    Some(old.trim().to_string())
}

fn render_json(
    rev: &str,
    host: &str,
    results: &[BenchResult],
    metrics: &[(&'static str, String)],
    baseline: Option<&str>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"vusion-bench-micro/v1\",\n");
    s.push_str(&format!("  \"git_rev\": \"{rev}\",\n"));
    s.push_str(&format!("  \"host\": {host},\n"));
    s.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    s.push_str("  \"unit\": \"ns\",\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {}, \"min_ns\": {}, \"mean_ns\": {}, \"median_ns\": {}, \"samples\": {}}}{}\n",
            r.name, r.median_ns, r.min_ns, r.mean_ns, r.median_ns, SAMPLES, comma
        ));
    }
    s.push_str("  ],\n");
    // One instrumented scan per engine: the observability layer's metrics
    // snapshot, embedded verbatim (it is already a JSON object).
    s.push_str("  \"metrics\": {");
    for (i, (engine, snap)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        s.push_str(&format!("\n    \"{engine}\": {snap}{comma}"));
    }
    s.push_str("\n  },\n");
    match baseline {
        Some(b) => {
            s.push_str("  \"baseline\": ");
            // Re-indent is cosmetic only; embed verbatim to stay valid.
            s.push_str(b);
            s.push('\n');
        }
        None => s.push_str("  \"baseline\": null\n"),
    }
    s.push_str("}\n");
    s
}

fn main() {
    let mut results = Vec::new();
    bench_page_ops(&mut results);
    bench_allocators(&mut results);
    bench_llc(&mut results);
    bench_access_path(&mut results);
    bench_fault_path(&mut results);
    let metrics = bench_engine_scans(&mut results);
    bench_scan_cold(&mut results);
    bench_scan_throttled(&mut results);
    bench_snapshot(&mut results);
    bench_vlint(&mut results);

    // Zero-cost-when-off: every scan bench above runs without a governor
    // and without the side-channel surface recorder, so the instrumented
    // metrics snapshots must carry no pressure.* or surface.* keys — a
    // disabled subsystem leaves no trace in any artifact.
    for (engine, snap) in &metrics {
        assert!(
            !snap.contains("pressure."),
            "{engine}: ungoverned bench metrics contain pressure.* keys"
        );
        assert!(
            !snap.contains("surface."),
            "{engine}: unsurfaced bench metrics contain surface.* keys"
        );
    }

    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{repo_root}/BENCH_micro.json");
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|old| carry_baseline(&old));
    let json = render_json(
        &git_rev(repo_root),
        &host_facts(),
        &results,
        &metrics,
        baseline.as_deref(),
    );
    std::fs::write(&path, json).expect("write BENCH_micro.json");
    println!("wrote {path}");
}
