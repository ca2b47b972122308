//! x86-64-style MMU simulation.
//!
//! VUsion's two central mechanisms are implemented *in the page tables*:
//!
//! * **S⊕F (share xor fetch)** removes *all* access to pages under fusion
//!   consideration by setting a **reserved bit** in their PTEs — the
//!   processor faults on any access regardless of permission bits — plus the
//!   **Caching Disabled** (PCD) bit to defeat `prefetch`-based side channels
//!   (§7.1).
//! * The **translation attack** (§5.1) observes whether a virtual address is
//!   mapped by a 2 MiB or a 4 KiB PTE through the depth of the page-table
//!   walk; VUsion's THP handling (§8) exists to close it.
//!
//! Both require real page tables, so this crate implements them as actual
//! little-endian u64 entries living inside simulated physical frames, with
//! 4-level walks that report every physical address they touch (the kernel
//! crate routes those through the LLC model, which is what makes AnC-style
//! attacks observable).

pub mod pte;
pub mod space;
pub mod tables;
pub mod tlb;
pub mod vma;

pub use pte::{Pte, PteFlags};
pub use space::AddressSpace;
pub use tables::{LeafInfo, PageTables, Walk};
pub use tlb::{Tlb, TlbEntry};
pub use vma::{range_end, GuestTag, Protection, Vma, VmaBacking};
