//! Fixture: V001 true positive — an allow annotation without a reason.

use std::env::var; // vlint: allow(D003)

pub fn seed() -> u64 {
    std::env::var("VUSION_SEED").map_or(0, |s| s.len() as u64)
}
