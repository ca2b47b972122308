//! DRAM geometry, row-buffer timing, and a Rowhammer fault model.
//!
//! §4.2 of the paper: DRAM is organized in rows of cells; activating two
//! *aggressor* rows in rapid alternation within a refresh interval leaks
//! charge from cells in adjacent *victim* rows until bits flip
//! (Kim et al., ISCA'14). Flip Feng Shui combines such flips with page
//! fusion's predictable physical-memory reuse to corrupt a victim's data.
//!
//! The model here is deliberately faithful to what the attacks need:
//!
//! * a deterministic physical-address → (bank, row, column) mapping with its
//!   inverse, so attackers can aim double-sided hammering;
//! * per-bank open-row buffers whose hit/conflict outcomes feed the
//!   simulated clock (row-buffer timing is also a side channel, §5.3);
//! * a seeded population of *weak cells* with per-cell flip thresholds:
//!   hammering a pair of aggressor rows for enough iterations flips exactly
//!   the weak cells whose thresholds were exceeded — reproducibly, which is
//!   what makes *templating* (profile first, exploit later) work.

pub mod geometry;
pub mod rowhammer;

pub use geometry::{DramConfig, DramLocation, RowBufferOutcome, RowBuffers, ROW_SIZE};
pub use rowhammer::{FlipEvent, HammerOutcome, RowhammerModel};
