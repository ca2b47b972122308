//! Fixture suite: one true-positive and one true-negative file per rule
//! under `tests/fixtures/`. The fixtures are linted with every rule
//! family forced on (their paths are outside the real scope map), so each
//! file demonstrates exactly the findings listed here.

use std::path::Path;

use vlint::{analyze_source, Families};

fn check(name: &str, expect: &[(&str, u32)]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture file readable");
    let findings = analyze_source(&format!("fixtures/{name}"), &src, Families::ALL);
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, expect, "unexpected findings for {name}: {findings:#?}");
}

#[test]
fn d004_platform_cfg() {
    check("d004_bad.rs", &[("D004", 3), ("D004", 9)]);
    check("d004_ok.rs", &[]);
}

#[test]
fn e001_undocumented_panics() {
    check("e001_bad.rs", &[("E001", 5), ("E001", 13)]);
    check("e001_ok.rs", &[]);
}

#[test]
fn e002_truncating_casts() {
    check("e002_bad.rs", &[("E002", 4), ("E002", 4), ("E002", 8)]);
    check("e002_ok.rs", &[]);
}

#[test]
fn g001_pressure_signal_reads() {
    check("g001_bad.rs", &[("G001", 4), ("G001", 9)]);
    check("g001_ok.rs", &[]);
}

#[test]
fn v001_allow_annotations() {
    // A reasonless allow, or one naming an unknown rule, is itself a
    // finding — and suppresses nothing.
    check(
        "allow_bad.rs",
        &[("G001", 5), ("V001", 5), ("V001", 9), ("G001", 10)],
    );
    check("allow_ok.rs", &[]);
}
