//! Whole-workspace properties: the JSON report is byte-stable across
//! runs, and the committed tree is clean.

use std::path::PathBuf;

use vlint::{scan_root, to_json};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn json_report_is_byte_stable() {
    let root = workspace_root();
    let first = scan_root(&root).expect("workspace scan succeeds");
    let second = scan_root(&root).expect("workspace scan succeeds");
    assert_eq!(
        to_json(&first).into_bytes(),
        to_json(&second).into_bytes(),
        "two scans of the same tree must serialize identically"
    );
}

#[test]
fn workspace_is_clean() {
    let findings = scan_root(&workspace_root()).expect("workspace scan succeeds");
    assert!(
        findings.is_empty(),
        "vlint findings in the tree:\n{findings:#?}"
    );
}
