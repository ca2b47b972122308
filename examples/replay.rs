//! Re-executes a chaos failure bundle.
//!
//! ```text
//! cargo run --example replay              # newest bundle in bench_logs/repro/
//! cargo run --example replay -- <path>    # a specific bundle
//! ```
//!
//! With no bundles on disk the example exits successfully after saying so.
//! CI replays the smoke campaign's `--selftest` bundle
//! (`bench_logs/campaign/selftest.vbun`), so every run checks one bundle
//! end to end. A reproduced failure exits 0 with the replayed digest (of
//! the whole system snapshot) matching; a bundle that *fails to
//! reproduce* exits 1 — that means the failure was not captured
//! deterministically and the bundle is a bug report against the journal
//! itself.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vusion::repro::{latest_bundle, Bundle, REPRO_DIR};

fn pick_bundle() -> Result<Option<PathBuf>, String> {
    if let Some(arg) = std::env::args().nth(1) {
        return Ok(Some(PathBuf::from(arg)));
    }
    let dir = Path::new(REPRO_DIR);
    if !dir.exists() {
        return Ok(None);
    }
    latest_bundle(dir).map_err(|e| format!("cannot list {REPRO_DIR}: {e}"))
}

fn run() -> Result<bool, String> {
    let Some(path) = pick_bundle()? else {
        println!("no failure bundles in {REPRO_DIR}; nothing to replay");
        return Ok(true);
    };
    let bundle = Bundle::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("bundle      {}", path.display());
    println!("engine      {}", bundle.kind.label());
    println!("seed        {:#018x}", bundle.seed);
    println!("journal     {} events", bundle.journal.len());
    println!("crash plan  armed={}", bundle.crashes_armed);
    println!("note        {}", bundle.note);
    println!("failed at   {}", bundle.failing_step);
    let outcome = bundle
        .replay()
        .map_err(|e| format!("replay failed to restore: {e}"))?;
    println!(
        "replayed    digest {:#018x} (expected {:#018x}), {} crash(es) fired",
        outcome.digest_replayed, outcome.digest_expected, outcome.crashes_fired
    );
    for v in &outcome.audit_violations {
        println!("audit       {v}");
    }
    if outcome.reproduced() {
        println!("reproduced: the bundle deterministically re-reaches the failing state");
        Ok(true)
    } else {
        println!("NOT reproduced: replay diverged from the recorded failing state");
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("replay: {e}");
            ExitCode::FAILURE
        }
    }
}
