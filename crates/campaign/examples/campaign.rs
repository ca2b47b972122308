//! Run a full DST campaign from the command line.
//!
//! ```text
//! cargo run --release -p vusion-campaign --example campaign -- \
//!     --seeds 200 --threads 8 --out target/campaign --verify
//! ```
//!
//! Flags:
//!
//! * `--seeds N` — seeds per (engine, plan, crash) cell (default 200)
//! * `--threads N` — worker threads (default 4)
//! * `--out DIR` — write `coverage.json` + shrunk `.vbun` bundles there
//! * `--verify` — re-run the whole campaign single-threaded and fail
//!   unless the two reports are byte-identical
//! * `--selftest` — also run a small poison-invariant campaign and fail
//!   unless the planted failure is caught and shrunk to ≤ 10% of its
//!   original journal; with `--out`, the shrunk bundle is written to
//!   `DIR/selftest.vbun` (`cargo run --example replay -- DIR/selftest.vbun`
//!   replays it)
//!
//! Exit status is non-zero on invariant violations, a failed `--verify`
//! comparison, or a failed `--selftest`.

use std::path::PathBuf;
use std::process::ExitCode;

use vusion::prelude::*;
use vusion::repro::Bundle;
use vusion_campaign::{poison_invariant, Campaign, CampaignConfig, ScenarioShape};

struct Args {
    seeds: u64,
    threads: usize,
    out: Option<PathBuf>,
    verify: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 200,
        threads: 4,
        out: None,
        verify: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--verify" => args.verify = true,
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The poison self-test: plant a known-bad invariant in a tiny campaign
/// and insist the pipeline catches it, shrinks it to ≤ 10% of the
/// journal, and keeps the failure signature stable under replay. Returns
/// the shrunk bundle.
fn selftest() -> Result<Bundle, String> {
    let mut cfg = CampaignConfig::standard(1);
    cfg.engines = vec![EngineKind::VUsion];
    cfg.plans = vec![("none".to_string(), FaultPlan::NONE)];
    cfg.crashes = vec![("none".to_string(), CrashPlan::NONE)];
    cfg.writes_per_round = 64;
    let report = Campaign::new(cfg)
        .map_err(|e| e.to_string())?
        .with_invariant(poison_invariant())
        .run()
        .map_err(|e| e.to_string())?;
    let f = report
        .failures
        .first()
        .ok_or("selftest: poison invariant never fired")?;
    if !f.reproducible {
        return Err("selftest: poison failure did not replay".into());
    }
    if f.shrunk_events * 10 > f.original_events {
        return Err(format!(
            "selftest: shrink left {}/{} events (> 10%)",
            f.shrunk_events, f.original_events
        ));
    }
    let sys = f
        .bundle
        .replay_with(&f.bundle.journal)
        .map_err(|e| e.to_string())?;
    let inv = poison_invariant();
    if (inv.check)(&sys, &ScenarioShape::small()).is_none() {
        return Err("selftest: shrunk journal lost the failure".into());
    }
    println!(
        "selftest: poison failure shrunk {} -> {} events in {} replays",
        f.original_events, f.shrunk_events, f.replays
    );
    Ok(f.bundle.clone())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = CampaignConfig::standard(args.seeds);
    cfg.threads = args.threads.max(1);
    println!(
        "campaign: {} runs ({} engines x {} plans x {} crash plans x {} seeds) on {} threads",
        cfg.total_runs(),
        cfg.engines.len(),
        cfg.plans.len(),
        cfg.crashes.len(),
        cfg.seeds,
        cfg.threads
    );

    let campaign = match Campaign::new(cfg.clone()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match campaign.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "coverage: {} keys, {} uncovered, {} failures",
        report.coverage.len(),
        report.uncovered.len(),
        report.failures.len()
    );
    for key in &report.uncovered {
        println!("  uncovered: {key}");
    }
    for f in &report.failures {
        println!(
            "  FAIL {} [{}] {} ({} -> {} events{})",
            f.label,
            f.invariant,
            f.detail,
            f.original_events,
            f.shrunk_events,
            if f.reproducible {
                ""
            } else {
                ", NOT reproducible"
            }
        );
    }

    let mut ok = true;

    if args.verify {
        let mut serial_cfg = cfg;
        serial_cfg.threads = 1;
        match Campaign::new(serial_cfg).and_then(|c| c.run()) {
            Ok(serial) if serial.to_json() == report.to_json() => {
                println!(
                    "verify: {}-thread report is byte-identical to 1-thread",
                    args.threads.max(1)
                );
            }
            Ok(_) => {
                eprintln!("verify: FAILED — report differs between thread counts");
                ok = false;
            }
            Err(e) => {
                eprintln!("verify: {e}");
                ok = false;
            }
        }
    }

    let mut poison = None;
    if args.selftest {
        match selftest() {
            Ok(bundle) => poison = Some(bundle),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }

    if let Some(dir) = &args.out {
        match report.dump(dir) {
            Ok(written) => println!("wrote {} artifacts to {}", written.len(), dir.display()),
            Err(e) => {
                eprintln!("error writing artifacts: {e}");
                ok = false;
            }
        }
        // Written after the report, whose bundle rotation must not drop it.
        if let Some(bundle) = &poison {
            let path = dir.join("selftest.vbun");
            if let Err(e) = std::fs::write(&path, bundle.to_bytes()) {
                eprintln!("error writing {}: {e}", path.display());
                ok = false;
            }
        }
    }

    if report.has_failures() {
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
