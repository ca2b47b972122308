//! Last-level cache (LLC) simulator.
//!
//! §5.1 of the paper introduces *merge-based* information-disclosure attacks
//! that observe the LLC instead of timing copy-on-write:
//!
//! * **Page color changes**: the evaluation machine (Intel Xeon E3-1240 v5)
//!   partitions its 8 MiB LLC into 8192 sets of 16 lines of 64 bytes; every
//!   4 KiB page covers 64 consecutive sets, so there are 8192/64 = 128 page
//!   colors. A PRIME+PROBE attacker can learn a page's color, and a color
//!   change after a fusion pass reveals a merge (`P_success = 127/128`).
//! * **Page sharing changes**: a FLUSH+RELOAD-style attacker detects that a
//!   victim access hit the *same physical line*, revealing sharing.
//!
//! This crate provides the physically indexed, set-associative, LRU cache
//! those attacks (and the AnC translation attack) run against. Timing is
//! returned as hit/miss outcomes; the kernel crate converts outcomes into
//! simulated nanoseconds.

pub mod llc;

pub use llc::{CacheOutcome, CacheStats, Llc, LlcConfig, LINE_SIZE};
