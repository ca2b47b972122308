//! Facts about the host a result was measured on.

use std::path::Path;
use std::process::{Command, Stdio};

/// CPU model, core count, toolchain and source revision.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cores this process may use.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Git revision of the source tree, or `unknown` outside a git
    /// checkout.
    pub git_rev: String,
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

impl HostFacts {
    /// Collects the facts; any that cannot be read are `unknown`.
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let unknown = || "unknown".to_string();
        Self {
            cpu_model,
            nproc,
            rustc: command_line(Command::new("rustc").arg("--version")).unwrap_or_else(unknown),
            git_rev: git_rev().unwrap_or_else(unknown),
        }
    }
}

/// `git rev-parse HEAD` of the source tree this package sits in. The
/// search for a repository stops at that tree's root, so a tree that is
/// not a git repository reads as unknown rather than as an enclosing
/// directory's repository.
fn git_rev() -> Option<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    command_line(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", root.parent()?),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
