//! CLI driver: `cargo run -p vlint -- check`.
//!
//! Scans the workspace, prints a human report, optionally writes the
//! findings as deterministic JSON (`--json PATH`, the CI artifact), and
//! exits non-zero on any finding. `rules` and `explain RULE` render the
//! catalog (`catalog::RULES`), the single source of truth the doc-sync
//! test holds DESIGN.md §11 against.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vlint::{catalog, scan_root, to_json};

const USAGE: &str = "\
usage: vlint <command> [options]

commands:
  check           scan the workspace and report contract violations
  rules           print the rule catalog
  explain RULE    print a rule's rationale with a minimal bad/ok pair

options (check):
  --root DIR      workspace root (default: nearest ancestor with [workspace])
  --json PATH     also write the findings as deterministic JSON
";

/// Renders the `rules` listing from the catalog.
fn rule_listing() -> String {
    let mut out = String::new();
    for r in catalog::RULES {
        out.push_str(r.id);
        out.push_str("  ");
        out.push_str(r.summary);
        out.push('\n');
    }
    out.push_str(
        "\nsuppression: append `// vlint: allow(RULE, reason)` on (or just above) the line\n\
         explain:     `vlint explain RULE` for a rule's rationale and a minimal bad/ok pair\n",
    );
    out
}

fn run_explain(id: &str) -> ExitCode {
    let Some(r) = catalog::find(id) else {
        eprintln!("vlint: unknown rule `{id}`; see `vlint rules` for the catalog");
        return ExitCode::from(2);
    };
    println!("{}  {}\n", r.id, r.summary);
    println!("{}\n", r.rationale);
    println!("bad:");
    for line in r.bad.lines() {
        println!("    {line}");
    }
    println!("\nok:");
    for line in r.ok.lines() {
        println!("    {line}");
    }
    ExitCode::SUCCESS
}

/// Nearest ancestor of the current directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_check(root: &Path, json_out: Option<&Path>) -> ExitCode {
    let findings = match scan_root(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("vlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, to_json(&findings)) {
            eprintln!("vlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for f in &findings {
        println!("{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
    }
    if findings.is_empty() {
        println!("vlint: clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "vlint: {} finding{}; see `vlint rules` for the catalog",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "rules" => {
            print!("{}", rule_listing());
            ExitCode::SUCCESS
        }
        "explain" | "--explain" => {
            let Some(id) = args.get(1) else {
                eprintln!("vlint: `explain` needs a rule id\n{USAGE}");
                return ExitCode::from(2);
            };
            run_explain(id)
        }
        "check" => {
            let mut root: Option<PathBuf> = None;
            let mut json_out: Option<PathBuf> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--root" if i + 1 < args.len() => {
                        root = Some(PathBuf::from(&args[i + 1]));
                        i += 2;
                    }
                    "--json" if i + 1 < args.len() => {
                        json_out = Some(PathBuf::from(&args[i + 1]));
                        i += 2;
                    }
                    other => {
                        eprintln!("vlint: unknown option `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            let Some(root) = root.or_else(find_workspace_root) else {
                eprintln!("vlint: no workspace root found (run inside the repo or pass --root)");
                return ExitCode::from(2);
            };
            run_check(&root, json_out.as_deref())
        }
        other => {
            eprintln!("vlint: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
