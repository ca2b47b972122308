//! Page-table entries with x86-64 bit layout.
//!
//! The bits VUsion cares about:
//!
//! * `PRESENT` — VUsion deliberately does **not** clear it (§7.1: the
//!   present bit "is used for tracking memory pages in many places in
//!   Linux"); instead it sets a **reserved bit**, which the processor
//!   checks *before* permissions and faults on unconditionally.
//! * `PCD` (Caching Disabled) — set together with the reserved bit to stop
//!   the `prefetch` side channel (Gruss et al., CCS'16): a prefetch of an
//!   uncacheable page does not load it into the LLC.
//! * `ACCESSED` — hardware-set on every access; the substrate of the idle
//!   page tracking that VUsion's working-set estimation uses (§7.2).
//!
//! Both [`Pte`] and [`PteFlags`] keep their bit representation private:
//! every manipulation outside this crate goes through the typed accessors
//! below, so the reserved-bit trap and the permission bits that Table 1's
//! security conclusions rest on cannot be twiddled as anonymous `u64`s.
//! The raw-word conversions are crate-private, so the compiler rejects
//! any other crate that tries to build a PTE from an integer or read one
//! back as an integer.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not};

use vusion_mem::FrameId;

/// Typed flag bits of a PTE (x86-64 layout).
///
/// A `PteFlags` value is a mask; combine masks with `|`, intersect with
/// `&`, and remove bits with `& !mask`. Construction from raw integers is
/// only possible through the crate-private `PteFlags::from_bits`, which
/// exists for the crate's own entry encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags(u64);

impl PteFlags {
    /// The empty mask.
    pub const NONE: PteFlags = PteFlags(0);
    /// Entry is valid.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Writes allowed.
    pub const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// User-mode access allowed.
    pub const USER: PteFlags = PteFlags(1 << 2);
    /// Caching disabled (PCD).
    pub const NO_CACHE: PteFlags = PteFlags(1 << 4);
    /// Hardware-set on access.
    pub const ACCESSED: PteFlags = PteFlags(1 << 5);
    /// Hardware-set on write.
    pub const DIRTY: PteFlags = PteFlags(1 << 6);
    /// Page size: this PD entry maps a 2 MiB page.
    pub const HUGE: PteFlags = PteFlags(1 << 7);
    /// A reserved bit (bit 51). Setting it makes the processor raise a page
    /// fault on any access, regardless of the permission bits — the trap
    /// mechanism S⊕F is built on.
    pub const RESERVED: PteFlags = PteFlags(1 << 51);
    /// No-execute.
    pub const NX: PteFlags = PteFlags(1 << 63);

    /// Physical-address bits 12..51.
    const ADDR_MASK: u64 = 0x0007_FFFF_FFFF_F000;
    /// All flag bits (everything that is not part of the frame address).
    const FLAG_MASK: u64 = !Self::ADDR_MASK;

    /// The raw bit pattern, for this crate's own entry encoding. Other
    /// crates cannot call it (E0624):
    ///
    /// ```compile_fail
    /// let _ = vusion_mmu::PteFlags::PRESENT.bits();
    /// ```
    pub(crate) const fn bits(self) -> u64 {
        self.0
    }

    /// Builds a mask from raw bits, dropping anything that overlaps the
    /// frame-address field. Crate-private like [`PteFlags::bits`]:
    ///
    /// ```compile_fail
    /// let _ = vusion_mmu::PteFlags::from_bits(1 << 51);
    /// ```
    pub(crate) const fn from_bits(bits: u64) -> PteFlags {
        PteFlags(bits & Self::FLAG_MASK)
    }

    /// Whether every bit of `mask` is set in `self`.
    pub const fn contains(self, mask: PteFlags) -> bool {
        self.0 & mask.0 == mask.0
    }

    /// Whether any bit of `mask` is set in `self`.
    pub const fn intersects(self, mask: PteFlags) -> bool {
        self.0 & mask.0 != 0
    }

    /// Whether no flag bit is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for PteFlags {
    fn bitor_assign(&mut self, rhs: PteFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for PteFlags {
    type Output = PteFlags;
    fn bitand(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 & rhs.0)
    }
}

impl BitAndAssign for PteFlags {
    fn bitand_assign(&mut self, rhs: PteFlags) {
        self.0 &= rhs.0;
    }
}

impl Not for PteFlags {
    type Output = PteFlags;
    fn not(self) -> PteFlags {
        // Complement within the flag space: the address field never leaks
        // into a mask.
        PteFlags(!self.0 & Self::FLAG_MASK)
    }
}

/// A 64-bit page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pte(pub(crate) u64);

impl Pte {
    /// The zero (non-present) entry.
    pub const EMPTY: Pte = Pte(0);

    /// Builds an entry pointing at `frame` with the given flags.
    ///
    /// # Panics
    ///
    /// Panics if the frame number does not fit the address field — the
    /// simulator's equivalent of handing the MMU a physical address the
    /// bus cannot carry.
    pub fn new(frame: FrameId, flags: PteFlags) -> Self {
        let addr = frame.0 << 12;
        assert_eq!(
            addr & !PteFlags::ADDR_MASK,
            0,
            "frame number too large for PTE"
        );
        Pte(addr | flags.0)
    }

    /// The frame this entry points to.
    pub fn frame(self) -> FrameId {
        FrameId((self.0 & PteFlags::ADDR_MASK) >> 12)
    }

    /// Replaces the frame, keeping all flags. Used by VUsion when
    /// re-randomizing the backing frame of a (fake-)merged page each scan.
    pub fn with_frame(self, frame: FrameId) -> Self {
        Pte::new(frame, self.flags())
    }

    /// The entry's flag bits as a typed mask.
    pub fn flags(self) -> PteFlags {
        PteFlags(self.0 & PteFlags::FLAG_MASK)
    }

    /// Whether all bits in `mask` are set.
    pub fn has(self, mask: PteFlags) -> bool {
        self.flags().contains(mask)
    }

    /// Returns a copy with `mask` set.
    pub fn set(self, mask: PteFlags) -> Self {
        Pte(self.0 | mask.0)
    }

    /// Returns a copy with `mask` cleared.
    pub fn clear(self, mask: PteFlags) -> Self {
        Pte(self.0 & !mask.0)
    }

    /// Present and not reserved-trapped: a plain access succeeds if
    /// permissions allow.
    pub fn is_present(self) -> bool {
        self.has(PteFlags::PRESENT)
    }

    /// Whether the entry traps on any access (reserved bit set).
    pub fn is_trapped(self) -> bool {
        self.has(PteFlags::RESERVED)
    }

    /// Whether this is the completely empty entry.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let pte = Pte::new(FrameId(0x1234), PteFlags::PRESENT | PteFlags::WRITABLE);
        assert_eq!(pte.frame(), FrameId(0x1234));
        assert!(pte.has(PteFlags::PRESENT));
        assert!(pte.has(PteFlags::WRITABLE));
        assert!(!pte.has(PteFlags::NX));
    }

    #[test]
    fn reserved_bit_is_outside_address_field() {
        let pte = Pte::new(
            FrameId(0xF_FFFF_FFFF),
            PteFlags::RESERVED | PteFlags::PRESENT,
        );
        assert_eq!(pte.frame(), FrameId(0xF_FFFF_FFFF));
        assert!(pte.is_trapped());
        assert!(pte.is_present(), "VUsion keeps PRESENT set while trapping");
    }

    #[test]
    fn with_frame_keeps_flags() {
        let pte = Pte::new(
            FrameId(1),
            PteFlags::PRESENT | PteFlags::NO_CACHE | PteFlags::RESERVED,
        );
        let moved = pte.with_frame(FrameId(99));
        assert_eq!(moved.frame(), FrameId(99));
        assert_eq!(moved.flags(), pte.flags());
    }

    #[test]
    fn set_and_clear() {
        let pte = Pte::new(FrameId(5), PteFlags::PRESENT);
        let a = pte.set(PteFlags::ACCESSED | PteFlags::DIRTY);
        assert!(a.has(PteFlags::ACCESSED));
        let c = a.clear(PteFlags::ACCESSED);
        assert!(!c.has(PteFlags::ACCESSED));
        assert!(c.has(PteFlags::DIRTY));
        assert_eq!(c.frame(), FrameId(5));
    }

    #[test]
    fn empty_entry() {
        assert!(Pte::EMPTY.is_empty());
        assert!(!Pte::EMPTY.is_present());
        assert!(!Pte(4).is_empty());
    }

    #[test]
    fn mask_complement_stays_in_flag_space() {
        let f = !PteFlags::HUGE;
        assert!(!f.contains(PteFlags::HUGE));
        assert!(f.contains(PteFlags::PRESENT | PteFlags::RESERVED | PteFlags::NX));
        assert_eq!(f.bits() & PteFlags::ADDR_MASK, 0, "address bits never leak");
        // Clearing through a complemented mask keeps the frame intact.
        let pte = Pte::new(FrameId(7), PteFlags::PRESENT | PteFlags::HUGE);
        let cleared = Pte::new(FrameId(7), pte.flags() & !PteFlags::HUGE);
        assert_eq!(cleared.frame(), FrameId(7));
        assert!(!cleared.has(PteFlags::HUGE));
        assert!(cleared.has(PteFlags::PRESENT));
    }

    #[test]
    fn from_bits_drops_address_bits() {
        let f = PteFlags::from_bits(u64::MAX);
        assert_eq!(f.bits() & PteFlags::ADDR_MASK, 0);
        assert!(f.contains(PteFlags::PRESENT | PteFlags::NX | PteFlags::RESERVED));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_frame_rejected() {
        let _ = Pte::new(FrameId(1 << 40), PteFlags::PRESENT);
    }
}
