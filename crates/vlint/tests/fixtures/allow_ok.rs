//! Fixture: V001 true negative — a reasoned allow suppresses its rule on
//! the annotated line and the line below.

// vlint: allow(D003, host-side harness import — read before the seeded run)
use std::env::var;

pub fn seed() -> u64 {
    // vlint: allow(D003, logged only — never reaches simulation state)
    std::env::var("VUSION_SEED").map_or(0, |s| s.len() as u64)
}
