//! Repro bundles are loaded from disk — often from a CI artifact that
//! survived an upload, a download, and a workstation copy. Decoding must
//! therefore be total: truncated, bit-flipped, or plain wrong input
//! yields a typed error, never a panic or a silently-wrong bundle. The
//! snapshot inside restores through `System::restore`, which must refuse
//! the same damage and leave the system it restores into untouched.

use vusion::kernel::JournalEvent;
use vusion::prelude::*;
use vusion::repro::{latest_bundle, Bundle};
use vusion_snapshot::{Snapshot, SnapshotError, Writer};

/// What replaying a journal that names a missing process returns.
const MISSING_PID: SnapshotError =
    SnapshotError::Corrupt("journal names a pid the machine does not have");

/// A real captured bundle to mutate.
fn sample_bundle() -> Bundle {
    let cfg = MachineConfig::test_small().with_seed(0xb0b);
    let mut sys = EngineKind::VUsion.build_system(cfg);
    let pid = sys.machine.spawn("p0").expect("spawn");
    sys.machine
        .mmap(pid, Vma::anon(VirtAddr(0x10000), 4, Protection::rw()));
    sys.machine.madvise_mergeable(pid, VirtAddr(0x10000), 4);
    sys.write_page(pid, VirtAddr(0x10000), &[3u8; PAGE_SIZE as usize]);
    sys.machine.enable_journal();
    sys.machine.clear_journal();
    let snap = sys.snapshot();
    sys.write_page(pid, VirtAddr(0x11000), &[5u8; PAGE_SIZE as usize]);
    sys.force_scans(2);
    Bundle::capture(EngineKind::VUsion, &cfg, snap, &sys, false, "test", "none")
}

#[test]
fn round_trip_is_lossless() {
    let bundle = sample_bundle();
    let bytes = bundle.to_bytes();
    let back = Bundle::from_bytes(&bytes).expect("round trip");
    assert_eq!(back.seed, bundle.seed);
    assert_eq!(back.digest, bundle.digest);
    assert_eq!(back.journal.len(), bundle.journal.len());
    assert_eq!(back.snapshot, bundle.snapshot);
    assert!(back.replay().expect("replay").reproduced());
}

/// What replaying [`sample_bundle`] with `event` appended to its journal
/// returns, once the bundle has gone through its sealed bytes.
fn replay_appended(event: JournalEvent) -> Option<SnapshotError> {
    let mut bundle = sample_bundle();
    bundle.journal.push(event);
    Bundle::from_bytes(&bundle.to_bytes())
        .and_then(|b| b.replay())
        .err()
}

#[test]
fn replay_refuses_a_journal_naming_a_missing_pid() {
    // The snapshot holds one process; the journal reads through pid 7.
    let event = JournalEvent::Read {
        pid: Pid(7),
        va: VirtAddr(0x10000),
    };
    assert_eq!(replay_appended(event), Some(MISSING_PID));
}

#[test]
fn replay_refuses_a_journal_mapping_over_an_area() {
    // The snapshot's process maps 0x10000..0x14000.
    let event = JournalEvent::Mmap {
        pid: Pid(0),
        vma: Vma::anon(VirtAddr(0x13000), 2, Protection::rw()),
    };
    assert_eq!(
        replay_appended(event),
        Some(SnapshotError::Corrupt("journal maps over an existing area"))
    );
}

#[test]
fn decode_refuses_an_mmap_past_the_address_space() {
    let event = JournalEvent::Mmap {
        pid: Pid(0),
        vma: Vma::anon(VirtAddr(0x100000), 1 << 52, Protection::rw()),
    };
    assert_eq!(
        replay_appended(event),
        Some(SnapshotError::Corrupt("vma geometry"))
    );
}

#[test]
fn decode_refuses_an_madvise_past_the_address_space() {
    let event = JournalEvent::Madvise {
        pid: Pid(0),
        start: VirtAddr(0x10000),
        pages: 1 << 52,
    };
    assert_eq!(
        replay_appended(event),
        Some(SnapshotError::Corrupt("madvise range overflows"))
    );
}

#[test]
fn shrink_keeps_the_spawn_a_failure_needs() {
    // The failure lives in a process spawned inside the journal: one of
    // six writes to it. Candidates that drop the spawn name a pid the
    // replayed machine does not have, and must count as not reproducing.
    let cfg = MachineConfig::test_small().with_seed(0x5b);
    let mut sys = EngineKind::Ksm.build_system(cfg);
    sys.machine.enable_journal();
    sys.machine.clear_journal();
    let snap = sys.snapshot();
    let pid = sys.machine.spawn("late").expect("spawn");
    sys.machine
        .mmap(pid, Vma::anon(VirtAddr(0x10000), 8, Protection::rw()));
    for v in 1..=6u8 {
        sys.write(pid, VirtAddr(0x10000 + u64::from(v) * PAGE_SIZE), v);
    }
    let bundle = Bundle::capture(EngineKind::Ksm, &cfg, snap, &sys, false, "late spawn", "");
    let failing = |s: &System<Box<dyn FusionPolicy>>| {
        let va = VirtAddr(0x10000 + 3 * PAGE_SIZE);
        let pa = (s.machine.process_count() > 0)
            .then(|| s.machine.translate_quiet(Pid(0), va))
            .flatten()?;
        (s.machine.mem().read_byte(pa) == 3).then_some(0x5b)
    };
    let out = bundle
        .shrink(failing, 200)
        .expect("the full journal replays")
        .expect("the full journal fails");
    let labels: Vec<&str> = out.shrunk.journal.iter().map(JournalEvent::label).collect();
    assert_eq!(
        labels,
        ["spawn", "mmap", "write"],
        "{:?}",
        out.shrunk.journal
    );
    assert!(out.shrunk.replay().expect("replay").reproduced());
}

#[test]
fn truncated_input_errors_at_every_length() {
    let bytes = sample_bundle().to_bytes();
    // Every strict prefix must fail cleanly — exhaustive over the header
    // region, sampled across the (large) snapshot body.
    for len in (0..bytes.len().min(256)).chain((256..bytes.len()).step_by(97)) {
        assert!(
            Bundle::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes decoded successfully"
        );
    }
}

#[test]
fn bit_flips_never_panic_and_never_decode() {
    let bytes = sample_bundle().to_bytes();
    // Flip one bit at a spread of positions covering the sealed header,
    // the config fields, the snapshot, and the journal; the seal's
    // checksum must reject every one of them.
    for pos in (0..bytes.len()).step_by(61) {
        for bit in [0, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                Bundle::from_bytes(&corrupt).is_err(),
                "bit {bit} of byte {pos} flipped but the bundle still decoded"
            );
        }
    }
}

/// A booted VUsion system on `test_small`: one process with two
/// identical pages among distinct ones, scanned until they fuse, so the
/// snapshot carries engine merge state. `extra_scans` gives a second
/// system of the same config a different state.
fn scanned_system(extra_scans: usize) -> System<Box<dyn FusionPolicy>> {
    let mut sys = EngineKind::VUsion.build_system(MachineConfig::test_small().with_seed(0xb0b));
    let pid = sys.machine.spawn("p0").expect("spawn");
    sys.machine
        .mmap(pid, Vma::anon(VirtAddr(0x10000), 4, Protection::rw()));
    sys.machine.madvise_mergeable(pid, VirtAddr(0x10000), 4);
    for (i, fill) in [3u8, 3, 5, 7].into_iter().enumerate() {
        let va = VirtAddr(0x10000 + i as u64 * PAGE_SIZE);
        sys.write_page(pid, va, &[fill; PAGE_SIZE as usize]);
    }
    sys.force_scans(14 + extra_scans);
    assert_eq!(sys.policy.pages_saved(), 1, "the twin pages fused");
    sys
}

/// Restores `bytes` into `target`, which must refuse them and keep its
/// own snapshot and metrics document byte for byte.
fn refuse(
    target: &mut System<Box<dyn FusionPolicy>>,
    before: &[u8],
    bytes: &[u8],
) -> SnapshotError {
    let metrics = target.metrics_snapshot().to_json();
    let err = target
        .restore(bytes)
        .expect_err("corrupt snapshot restored");
    assert!(
        target.snapshot() == before,
        "failed restore ({err}) changed the target"
    );
    assert_eq!(
        target.metrics_snapshot().to_json(),
        metrics,
        "failed restore ({err}) changed the target's metrics"
    );
    err
}

#[test]
fn restore_rejects_bit_flipped_snapshots_untouched() {
    let snap = scanned_system(0).snapshot();
    let mut target = scanned_system(1);
    let before = target.snapshot();
    assert_ne!(before, snap, "the target must start from different state");
    // Every header byte, then a spread across payload and checksum: the
    // header checks name the field, the checksum catches every other flip
    // before any field decodes.
    for pos in (0..8).chain((61..snap.len()).step_by(61)) {
        for bit in [0, 3, 7] {
            let mut corrupt = snap.clone();
            corrupt[pos] ^= 1 << bit;
            let err = refuse(&mut target, &before, &corrupt);
            match pos {
                0..=3 => assert_eq!(err, SnapshotError::BadMagic),
                4..=7 => assert!(matches!(err, SnapshotError::BadVersion { .. })),
                _ => assert_eq!(
                    err,
                    SnapshotError::ChecksumMismatch,
                    "bit {bit} of byte {pos}"
                ),
            }
        }
    }
    target.restore(&snap).expect("intact snapshot restores");
    assert!(target.snapshot() == snap);
}

#[test]
fn restore_rejects_truncated_snapshots_untouched() {
    let snap = scanned_system(0).snapshot();
    let mut target = scanned_system(1);
    let before = target.snapshot();
    // Exhaustive over the header region, sampled across the body.
    for len in (0..snap.len().min(256)).chain((256..snap.len()).step_by(97)) {
        let err = refuse(&mut target, &before, &snap[..len]);
        let want = if len < 16 {
            SnapshotError::Truncated
        } else {
            SnapshotError::ChecksumMismatch
        };
        assert_eq!(err, want, "truncation to {len} bytes");
    }
}

/// `snap` with its payload edited and sealed again, so only the decoder
/// can object.
fn resealed(snap: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = vusion_snapshot::unseal(snap).expect("intact").to_vec();
    edit(&mut payload);
    vusion_snapshot::seal(&payload)
}

#[test]
fn restore_rejects_bytes_after_the_payload() {
    let snap = scanned_system(0).snapshot();
    let mut target = scanned_system(1);
    let before = target.snapshot();
    let padded = resealed(&snap, |p| p.push(0));
    assert_eq!(
        refuse(&mut target, &before, &padded),
        SnapshotError::Corrupt("unread bytes after the last field")
    );
    target.restore(&snap).expect("intact snapshot restores");
}

#[test]
fn restore_rejects_bytes_after_the_engine_blob() {
    let sys = scanned_system(0);
    let snap = sys.snapshot();
    let mut w = Writer::new();
    sys.policy.save(&mut w);
    let blob = w.into_bytes();
    let longer = resealed(&snap, |p| {
        // The engine blob ends the payload, behind its length prefix.
        let at = p.len() - blob.len() - 8;
        assert_eq!(p[at..at + 8], (blob.len() as u64).to_le_bytes());
        assert_eq!(p[at + 8..], blob[..]);
        p[at..at + 8].copy_from_slice(&(blob.len() as u64 + 1).to_le_bytes());
        p.push(0);
    });
    let mut target = scanned_system(1);
    let before = target.snapshot();
    assert_eq!(
        refuse(&mut target, &before, &longer),
        SnapshotError::Corrupt("unread bytes after the last field")
    );
    target.restore(&snap).expect("intact snapshot restores");
}

#[test]
fn wrong_magic_and_garbage_error_cleanly() {
    assert!(Bundle::from_bytes(&[]).is_err());
    assert!(Bundle::from_bytes(b"VSNP").is_err());
    assert!(Bundle::from_bytes(b"not a bundle at all").is_err());
    let mut bytes = sample_bundle().to_bytes();
    bytes[0..4].copy_from_slice(b"XXXX");
    assert!(Bundle::from_bytes(&bytes).is_err());
    // A valid seal around garbage payload must also fail (in the decoder,
    // not the unsealer).
    let sealed_garbage = vusion_snapshot::seal(&[0xff; 64]);
    assert!(Bundle::from_bytes(&sealed_garbage).is_err());
}

#[test]
fn latest_bundle_ignores_non_bundle_files() {
    let dir = std::env::temp_dir().join(format!("vusion-bundle-robust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Non-bundle clutter: wrong extensions, a directory, a .vbun decoy
    // that is not even close to a bundle.
    std::fs::write(dir.join("coverage.json"), b"{}").expect("write");
    std::fs::write(dir.join("notes.txt"), b"hello").expect("write");
    std::fs::create_dir_all(dir.join("sub.vbun")).expect("mkdir decoy");
    assert_eq!(
        latest_bundle(&dir).expect("scan"),
        None,
        "clutter-only directory must yield no bundle"
    );

    let path = sample_bundle().dump_to(&dir).expect("dump");
    let found = latest_bundle(&dir).expect("scan").expect("bundle found");
    assert_eq!(found, path);
    let bytes = std::fs::read(found).expect("read");
    assert!(Bundle::from_bytes(&bytes).expect("decode").replay().is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}
