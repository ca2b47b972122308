//! Physical-address ↔ DRAM-location mapping and per-bank row buffers.

use vusion_mem::PhysAddr;

/// Geometry of the simulated memory module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (row buffers).
    pub banks: u64,
    /// Row size in bytes. 8 KiB ⇒ each row spans two 4 KiB pages, as on the
    /// paper's DDR4 testbed.
    pub row_size: u64,
}

impl DramConfig {
    /// Default geometry: 8 banks, 8 KiB rows (two pages per row).
    pub fn ddr4() -> Self {
        Self {
            banks: 8,
            row_size: 8192,
        }
    }

    /// A single-bank geometry that makes row adjacency line up with frame
    /// adjacency — convenient for unit tests.
    pub fn single_bank() -> Self {
        Self {
            banks: 1,
            row_size: 8192,
        }
    }

    /// Maps a physical address to its DRAM location.
    ///
    /// Banks interleave at row-size granularity: consecutive row-sized
    /// chunks of the physical address space go to consecutive banks, and a
    /// bank's next row is `banks` chunks later. This is a simplification of
    /// real DDR4 bank XOR functions but preserves the property attacks need:
    /// a deterministic, invertible map the attacker can learn.
    pub fn locate(&self, addr: PhysAddr) -> DramLocation {
        let chunk = addr.0 / self.row_size;
        DramLocation {
            bank: chunk % self.banks,
            row: chunk / self.banks,
            col: addr.0 % self.row_size,
        }
    }

    /// Inverse of [`Self::locate`].
    pub fn address_of(&self, loc: DramLocation) -> PhysAddr {
        PhysAddr((loc.row * self.banks + loc.bank) * self.row_size + loc.col)
    }
}

/// A (bank, row, column) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Bank index.
    pub bank: u64,
    /// Row index within the bank.
    pub row: u64,
    /// Byte offset within the row.
    pub col: u64,
}

/// Outcome of a DRAM access with respect to the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The requested row was already open (fast).
    Hit,
    /// The bank had no open row (first access).
    Empty,
    /// Another row was open and had to be closed first (slow, and an
    /// *activation* of the new row — the Rowhammer ingredient).
    Conflict,
}

/// Per-bank open-row state.
#[derive(Debug, Clone)]
pub struct RowBuffers {
    cfg: DramConfig,
    open: Vec<Option<u64>>,
    activations: u64,
}

impl RowBuffers {
    /// Creates closed row buffers for every bank.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            open: vec![None; cfg.banks as usize],
            activations: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Accesses an address: returns whether the row buffer hit, and opens
    /// the accessed row.
    pub fn access(&mut self, addr: PhysAddr) -> RowBufferOutcome {
        let loc = self.cfg.locate(addr);
        let slot = &mut self.open[loc.bank as usize];
        match *slot {
            Some(r) if r == loc.row => RowBufferOutcome::Hit,
            Some(_) => {
                *slot = Some(loc.row);
                self.activations += 1;
                RowBufferOutcome::Conflict
            }
            None => {
                *slot = Some(loc.row);
                self.activations += 1;
                RowBufferOutcome::Empty
            }
        }
    }

    /// Total row activations so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Closes all rows (refresh / precharge-all).
    pub fn precharge_all(&mut self) {
        for s in &mut self.open {
            *s = None;
        }
    }
}

impl vusion_snapshot::Snapshot for RowBuffers {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.cfg.banks);
        w.u64(self.cfg.row_size);
        for slot in &self.open {
            match slot {
                Some(row) => {
                    w.bool(true);
                    w.u64(*row);
                }
                None => w.bool(false),
            }
        }
        w.u64(self.activations);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let Self {
            cfg,
            open,
            activations,
        } = self;
        if r.u64()? != cfg.banks || r.u64()? != cfg.row_size {
            return Err(SnapshotError::Corrupt("dram geometry mismatch"));
        }
        for slot in open.iter_mut() {
            *slot = if r.bool()? { Some(r.u64()?) } else { None };
        }
        *activations = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_field() {
        let cfg = DramConfig::ddr4();
        let mut src = RowBuffers::new(cfg);
        src.access(PhysAddr(0));
        src.access(PhysAddr(cfg.row_size * (cfg.banks + 1)));
        src.access(PhysAddr(cfg.row_size * 2));
        let mut dst = RowBuffers::new(cfg);
        let (a, b) = vusion_snapshot::resave(&src, &mut dst).expect("resave");
        assert_eq!(a, b);
    }

    #[test]
    fn locate_and_inverse_roundtrip() {
        let cfg = DramConfig::ddr4();
        for a in [0u64, 4096, 8192, 65536, 1 << 20, (1 << 20) + 777] {
            let loc = cfg.locate(PhysAddr(a));
            assert_eq!(cfg.address_of(loc), PhysAddr(a));
        }
    }

    #[test]
    fn two_pages_share_a_row() {
        let cfg = DramConfig::single_bank();
        let a = cfg.locate(PhysAddr(0));
        let b = cfg.locate(PhysAddr(4096));
        let c = cfg.locate(PhysAddr(8192));
        assert_eq!(a.row, b.row);
        assert_eq!(c.row, a.row + 1);
    }

    #[test]
    fn banks_interleave() {
        let cfg = DramConfig::ddr4();
        let a = cfg.locate(PhysAddr(0));
        let b = cfg.locate(PhysAddr(cfg.row_size));
        assert_eq!(a.bank, 0);
        assert_eq!(b.bank, 1);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn row_buffer_hit_after_open() {
        let mut rb = RowBuffers::new(DramConfig::single_bank());
        assert_eq!(rb.access(PhysAddr(0)), RowBufferOutcome::Empty);
        assert_eq!(rb.access(PhysAddr(100)), RowBufferOutcome::Hit);
        assert_eq!(
            rb.access(PhysAddr(4096)),
            RowBufferOutcome::Hit,
            "same row, next page"
        );
        assert_eq!(
            rb.access(PhysAddr(8192)),
            RowBufferOutcome::Conflict,
            "next row"
        );
        assert_eq!(
            rb.access(PhysAddr(0)),
            RowBufferOutcome::Conflict,
            "back again"
        );
        assert_eq!(rb.activations(), 3);
    }

    #[test]
    fn banks_have_independent_buffers() {
        let cfg = DramConfig::ddr4();
        let mut rb = RowBuffers::new(cfg);
        rb.access(PhysAddr(0)); // Bank 0.
        rb.access(PhysAddr(cfg.row_size)); // Bank 1.
        assert_eq!(
            rb.access(PhysAddr(64)),
            RowBufferOutcome::Hit,
            "bank 0 row still open"
        );
    }

    #[test]
    fn precharge_closes_rows() {
        let mut rb = RowBuffers::new(DramConfig::single_bank());
        rb.access(PhysAddr(0));
        rb.precharge_all();
        assert_eq!(rb.access(PhysAddr(0)), RowBufferOutcome::Empty);
    }
}
