//! Regression suite for the write-generation contract: the memoized
//! per-frame content hashes and zero bits must stay coherent through
//! *every* public mutator — including the Rowhammer `flip_bit` path — and
//! across snapshot save/restore, where the cache is reset wholesale
//! instead of bumped per frame. The compiler enforces the bump itself:
//! frame bytes and their generations sit in a private store inside
//! `phys.rs` whose only mutable access bumps. This suite checks what the
//! memo does with the generations.

use vusion_mem::{content_hash, FrameId, PhysAddr, PhysMemory, PAGE_SIZE};
use vusion_snapshot::{Reader, Snapshot, Writer};

const FRAMES: usize = 4;

fn page(fill: u8) -> [u8; PAGE_SIZE as usize] {
    let mut p = [fill; PAGE_SIZE as usize];
    p[7] = fill.wrapping_add(3);
    p
}

/// Warms every memoized value so a later stale entry cannot hide behind
/// a cold cache.
fn warm(m: &PhysMemory) {
    for i in 0..m.frame_count() {
        let _ = m.hash_page(FrameId(i as u64));
        let _ = m.is_zero(FrameId(i as u64));
    }
}

/// The observable contract: memoization must be invisible. Every frame's
/// hash equals a fresh computation and every zero bit equals a fresh
/// scan.
fn assert_coherent(m: &PhysMemory, ctx: &str) {
    for i in 0..m.frame_count() {
        let f = FrameId(i as u64);
        assert_eq!(
            m.hash_page(f),
            content_hash(m.page(f)),
            "{ctx}: stale hash on frame {i}"
        );
        assert_eq!(
            m.is_zero(f),
            m.page(f).iter().all(|&b| b == 0),
            "{ctx}: stale zero bit on frame {i}"
        );
    }
}

#[test]
fn every_public_mutator_keeps_hashes_coherent() {
    let mut m = PhysMemory::new(FRAMES);
    warm(&m);

    m.write_byte(PhysAddr(3), 7);
    assert_coherent(&m, "write_byte");
    warm(&m);

    m.write_u64(PhysAddr(PAGE_SIZE + 16), 0xdead_beef_cafe_f00d);
    assert_coherent(&m, "write_u64");
    warm(&m);

    m.write_page(FrameId(2), &page(0x42));
    assert_coherent(&m, "write_page");
    warm(&m);

    m.copy_page(FrameId(2), FrameId(3));
    assert_coherent(&m, "copy_page");
    warm(&m);

    m.flip_bit(PhysAddr(2 * PAGE_SIZE + 9), 5);
    assert_coherent(&m, "flip_bit");
    warm(&m);

    m.zero_page(FrameId(2));
    assert_coherent(&m, "zero_page");

    // Writing a page back to all-zeroes dematerializes it; the cached
    // non-zero hash must not survive.
    m.write_page(FrameId(3), &[0; PAGE_SIZE as usize]);
    assert_coherent(&m, "write_page(zeroes)");
}

#[test]
fn snapshot_restore_drops_every_memoized_value() {
    let mut m = PhysMemory::new(FRAMES);
    m.write_page(FrameId(0), &page(0xAA));
    m.write_page(FrameId(1), &page(0x5A));
    warm(&m);

    let mut w = Writer::new();
    m.save(&mut w);
    let bytes = w.into_bytes();

    // Diverge after the save and re-warm: the hot cache now describes a
    // state the snapshot does not contain.
    m.write_page(FrameId(0), &page(0x11));
    m.flip_bit(PhysAddr(PAGE_SIZE + 3), 2);
    m.zero_page(FrameId(1));
    warm(&m);

    // In-place restore must reset the memoization wholesale (this is the
    // one mutation path that bumps no per-frame generation: the store's
    // load-only methods in phys.rs).
    let mut r = Reader::new(&bytes);
    m.load(&mut r).expect("restore");
    assert_coherent(&m, "restore over hot cache");

    // And the restored image is byte- and hash-identical to the same
    // snapshot loaded into a fresh memory with cold caches.
    let mut fresh = PhysMemory::new(FRAMES);
    let mut r2 = Reader::new(&bytes);
    fresh.load(&mut r2).expect("restore into fresh");
    for i in 0..FRAMES {
        let f = FrameId(i as u64);
        assert_eq!(m.page(f), fresh.page(f), "content diverged on frame {i}");
        assert_eq!(
            m.hash_page(f),
            fresh.hash_page(f),
            "hash diverged on frame {i}"
        );
    }
}
