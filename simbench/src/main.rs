//! Runs one workload of the simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <idle_fusion|guest_churn|traced_replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, writes a result file (and, traced, the
//! spans) under `simbench/out/`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. The metrics are the
//! end-to-end ones untraced and the per-layer ones traced.

use std::path::PathBuf;
use std::process::ExitCode;

use vusion_simbench::report::{run, RunConfig};
use vusion_simbench::Workload;

const USAGE: &str =
    "usage: vusion-simbench --workload <idle_fusion|guest_churn|traced_replay> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(format!("--seconds {value:?}: out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(config);
    print!("{}", outcome.text());

    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let stem = format!(
        "{}-seed{}-trace{}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    );
    let mut files = vec![(dir.join(format!("{stem}.json")), outcome.to_json())];
    if config.trace {
        files.push((
            dir.join(format!("{stem}-spans.json")),
            outcome.spans.to_json(),
        ));
    }
    for (path, body) in files {
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
