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
fn d001_wall_clock() {
    check("d001_bad.rs", &[("D001", 3), ("D001", 3), ("D001", 6)]);
    check("d001_ok.rs", &[]);
}

#[test]
fn d002_hash_collections() {
    check("d002_bad.rs", &[("D002", 3), ("D002", 6)]);
    check("d002_ok.rs", &[]);
}

#[test]
fn d003_env_reads() {
    check("d003_bad.rs", &[("D003", 4)]);
    check("d003_ok.rs", &[]);
}

#[test]
fn d004_platform_cfg() {
    check("d004_bad.rs", &[("D004", 3), ("D004", 9)]);
    check("d004_ok.rs", &[]);
}

#[test]
fn t001_host_threads() {
    check("t001_bad.rs", &[("T001", 3), ("T001", 6), ("T001", 8)]);
    check("t001_ok.rs", &[]);
}

#[test]
fn w001_write_gen_bump() {
    check("w001_bad.rs", &[("W001", 10)]);
    check("w001_ok.rs", &[]);
}

#[test]
fn p001_raw_pte_bits() {
    check(
        "p001_bad.rs",
        &[("P001", 3), ("P001", 4), ("P001", 7), ("P001", 8)],
    );
    check("p001_ok.rs", &[]);
}

#[test]
fn p002_bits_escape_hatch() {
    check("p002_bad.rs", &[("P002", 5), ("P002", 9)]);
    check("p002_ok.rs", &[]);
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
fn o001_latency_sampling() {
    check("o001_bad.rs", &[("O001", 4), ("O001", 8)]);
    check("o001_ok.rs", &[]);
}

#[test]
fn s001_snapshot_field_coverage() {
    check("s001_bad.rs", &[("S001", 5)]);
    check("s001_ok.rs", &[]);
}

#[test]
fn s002_snapshot_field_order() {
    check("s002_bad.rs", &[("S002", 15)]);
    check("s002_ok.rs", &[]);
}

#[test]
fn j001_journal_coverage() {
    check("j001_bad.rs", &[("J001", 10)]);
    check("j001_ok.rs", &[]);
}

#[test]
fn v001_allow_annotations() {
    // A reasonless allow is itself a finding — and suppresses nothing.
    check("allow_bad.rs", &[("D002", 3), ("V001", 3), ("D002", 6)]);
    check("allow_ok.rs", &[]);
}
