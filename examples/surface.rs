//! Differential side-channel surface report across the three engines.
//!
//! ```text
//! cargo run --example surface
//! ```
//!
//! Records one workload journal (duplicate + unique pages, settle,
//! probe each population) and replays it against KSM, WPF, and VUsion
//! with the [`vusion::kernel::SideChannelSurface`] recorder enabled,
//! then scores each channel's ability to distinguish fused from unfused
//! probe targets (see `vusion::diffsurface`). The run fails unless:
//!
//! * KSM and WPF show a distinguishing fault-latency surface (the
//!   paper's §2 attack premise), and
//! * every VUsion channel scores under the leakage threshold (the
//!   Share-XOR-Randomize defense claim), and
//! * every `surface_<engine>.json` artifact is byte-identical across a
//!   freshly recorded journal and its replay, and
//! * a surface-disabled control run emits no `surface.*` metrics keys.
//!
//! Output: the leakage report on stdout, plus `bench_logs/surface_<engine>.json`
//! and `bench_logs/surface_report.json` (the CI artifacts).

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use vusion::diffsurface::{self, WorkloadJournal};
use vusion::prelude::*;

fn main() -> ExitCode {
    let report = diffsurface::run();
    let violations = report.violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("leakage violation: {v}");
        }
        return ExitCode::FAILURE;
    }

    // Determinism: a fresh journal + replay must reproduce every
    // artifact byte for byte.
    let journal = WorkloadJournal::record();
    for base in &report.engines {
        let again = diffsurface::replay_engine(base.engine, &journal);
        if again.surface_json != base.surface_json {
            eprintln!(
                "{}: surface artifact differs on a fresh record + replay",
                base.engine.slug()
            );
            return ExitCode::FAILURE;
        }
    }

    // Zero-cost control: the same workload with the surface recorder
    // left off must contribute no surface.* metrics keys.
    {
        let mut sys = EngineKind::Ksm.build_system(MachineConfig::test_small());
        sys.machine.enable_tracing();
        let pid = sys.machine.spawn("control").expect("spawn");
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(0x40000), 8, Protection::rw()));
        for pg in 0..8u64 {
            sys.write_page(pid, VirtAddr(0x40000 + pg * PAGE_SIZE), &[3; 4096]);
        }
        sys.force_scans(4);
        let metrics = sys.metrics_snapshot().to_json();
        if metrics.contains("surface.") {
            eprintln!("disabled surface recorder leaked surface.* metrics keys");
            return ExitCode::FAILURE;
        }
    }

    let doc = report.to_json();
    println!("{doc}");

    let out_dir = Path::new("bench_logs");
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    for e in &report.engines {
        let path = out_dir.join(format!("surface_{}.json", e.engine.slug()));
        if let Err(err) = fs::write(&path, &e.surface_json) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    let path = out_dir.join("surface_report.json");
    if let Err(e) = fs::write(&path, &doc) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", path.display());
    ExitCode::SUCCESS
}
