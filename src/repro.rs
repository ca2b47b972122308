//! Failure bundles: self-contained repro artifacts for chaos failures.
//!
//! When a chaos or security-invariant assertion fails, the harness dumps a
//! [`Bundle`] — `{engine, seed, fault plan, crash plan, base snapshot,
//! event journal, expected digest}` — into [`REPRO_DIR`]. The
//! `replay` example (or [`Bundle::replay`] from test code) rebuilds the
//! identical system, restores the snapshot, re-arms the crash plan if the
//! failing run had one armed, re-executes the journal, and checks that
//! the digest of the whole system state (its sealed [`System::snapshot`])
//! matches the one recorded at failure time. A match means the failure is
//! deterministic and the bundle alone reproduces it.
//!
//! Bundles record only the *deltas* from [`MachineConfig::test_small`]
//! (frame count, reserved region, THP, seed, plans) — the configuration
//! every chaos and security test starts from. A bundle from an exotic
//! cache/DRAM geometry would fail loudly on restore (the snapshot
//! verifies geometry), never silently mis-replay.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use vusion_core::EngineKind;
use vusion_kernel::{FusionPolicy, JournalEvent, Machine, MachineConfig, System};
use vusion_mem::{CrashPlan, FaultPlan};
use vusion_snapshot::{fnv1a64, Reader, SnapshotError, Writer};

/// Where [`Bundle::dump`] writes and `examples/replay.rs` looks.
pub const REPRO_DIR: &str = "bench_logs/repro";

/// Newest bundles kept by the [`Bundle::dump`] rotation; older ones are
/// deleted so a flaky suite cannot fill the disk.
pub const KEEP_BUNDLES: usize = 8;

/// What [`Bundle::replay_with`] refuses a journal with when one of its
/// events names a process the replayed machine does not have.
const MISSING_PID: SnapshotError =
    SnapshotError::Corrupt("journal names a pid the machine does not have");

/// What [`Bundle::replay_with`] refuses a journal with when it maps an
/// area over one the process already has.
const MAP_OVERLAP: SnapshotError = SnapshotError::Corrupt("journal maps over an existing area");

/// Everything needed to re-execute a failing chaos run.
#[derive(Clone)]
pub struct Bundle {
    /// Engine the failing run used.
    pub kind: EngineKind,
    /// Physical frames (from the run's config).
    pub frames: u64,
    /// Reserved top-of-memory frames (WPF linear region).
    pub reserved_top_frames: u64,
    /// Whether huge demand paging was on.
    pub thp: bool,
    /// Machine seed.
    pub seed: u64,
    /// Fault-injection plan (journaled behavior; replayed).
    pub fault_plan: FaultPlan,
    /// Crash-injection plan (re-armed on replay iff `crashes_armed`).
    pub crash_plan: CrashPlan,
    /// Whether the failing run armed its crash plan after the snapshot.
    pub crashes_armed: bool,
    /// Free-form context (which test, which assertion).
    pub note: String,
    /// The assertion message that fired.
    pub failing_step: String,
    /// Chrome `trace_event` JSON of the tracer ring buffer at failure
    /// time — empty when the failing run had tracing disabled.
    pub trace_tail: String,
    /// Canonical side-channel surface JSON at failure time — empty when
    /// the failing run had the surface recorder disabled.
    pub surface_tail: String,
    /// Digest of the system's sealed [`System::snapshot`] at failure
    /// time: every byte of machine, driver and engine state.
    pub digest: u64,
    /// Sealed [`System::snapshot`] taken when journaling began.
    pub snapshot: Vec<u8>,
    /// Every journaled event between the snapshot and the failure.
    pub journal: Vec<JournalEvent>,
}

/// What [`Bundle::replay`] observed.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Digest recorded in the bundle at failure time.
    pub digest_expected: u64,
    /// Digest of the system after restore + replay.
    pub digest_replayed: u64,
    /// Frame-accounting violations after replay (non-empty exactly when
    /// the original failure was an audit failure).
    pub audit_violations: Vec<String>,
    /// Crash sites that fired during the replay.
    pub crashes_fired: u64,
}

impl ReplayOutcome {
    /// Whether the replay converged to the recorded failing state.
    pub fn reproduced(&self) -> bool {
        self.digest_replayed == self.digest_expected
    }
}

/// What [`Bundle::shrink`] produced: the minimal bundle plus the search's
/// bookkeeping.
#[derive(Clone)]
pub struct ShrinkOutcome {
    /// Events in the journal before shrinking.
    pub original_len: usize,
    /// Restore+replay probes the search spent.
    pub replays: u64,
    /// The failure signature the shrunk journal still reproduces.
    pub signature: u64,
    /// The bundle carrying the minimal journal (digest recomputed so it
    /// replays green through [`Bundle::replay`]).
    pub shrunk: Bundle,
}

impl ShrinkOutcome {
    /// Events remaining after shrinking.
    pub fn shrunk_len(&self) -> usize {
        self.shrunk.journal.len()
    }
}

/// Loading or dumping a bundle failed.
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The bundle bytes are corrupt or from an incompatible version.
    Snapshot(SnapshotError),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "bundle I/O error: {e}"),
            Self::Snapshot(e) => write!(f, "bundle decode error: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<SnapshotError> for BundleError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

fn kind_tag(kind: EngineKind) -> u8 {
    match kind {
        EngineKind::NoFusion => 0,
        EngineKind::Ksm => 1,
        EngineKind::KsmCoa => 2,
        EngineKind::KsmZeroOnly => 3,
        EngineKind::Wpf => 4,
        EngineKind::VUsion => 5,
        EngineKind::VUsionThp => 6,
    }
}

fn kind_from_tag(tag: u8) -> Result<EngineKind, SnapshotError> {
    Ok(match tag {
        0 => EngineKind::NoFusion,
        1 => EngineKind::Ksm,
        2 => EngineKind::KsmCoa,
        3 => EngineKind::KsmZeroOnly,
        4 => EngineKind::Wpf,
        5 => EngineKind::VUsion,
        6 => EngineKind::VUsionThp,
        _ => return Err(SnapshotError::Corrupt("unknown engine tag")),
    })
}

/// The digest a bundle judges a replay by: FNV-1a over the system's
/// sealed [`System::snapshot`], so page tables, TLBs, the LLC, the clock,
/// every counter and the engine state all count, not only memory.
fn state_digest<P: FusionPolicy>(sys: &System<P>) -> u64 {
    fnv1a64(&sys.snapshot())
}

/// Asserts that [`Machine::audit_frames`] comes back empty.
///
/// The chaos harness calls this from its `Drop` impl so *every* chaos
/// test ends with a frame-accounting audit — refcounts vs. mappings,
/// allocator vs. frame states — whether or not the test body remembered
/// to check explicitly.
///
/// # Panics
///
/// Panics, listing the violations, if the audit finds any.
pub fn assert_frames_sound(m: &Machine, label: &str) {
    let violations = m.audit_frames();
    assert!(
        violations.is_empty(),
        "frame audit failed at end of `{label}`: {violations:?}"
    );
}

impl Bundle {
    /// Builds a bundle from a failing system. `cfg` is the *pre-adapt*
    /// config the run was built from (the same value handed to
    /// [`EngineKind::build_system`]); `base_snapshot` is the
    /// [`System::snapshot`] taken when the journal was last cleared.
    pub fn capture<P: FusionPolicy>(
        kind: EngineKind,
        cfg: &MachineConfig,
        base_snapshot: Vec<u8>,
        sys: &System<P>,
        crashes_armed: bool,
        note: &str,
        failing_step: &str,
    ) -> Self {
        Self {
            kind,
            frames: cfg.frames,
            reserved_top_frames: cfg.reserved_top_frames,
            thp: cfg.thp,
            seed: cfg.seed,
            fault_plan: cfg.fault_plan,
            crash_plan: cfg.crash_plan,
            crashes_armed,
            note: note.to_string(),
            failing_step: failing_step.to_string(),
            trace_tail: if sys.machine.obs().enabled() {
                sys.machine.obs().tracer().chrome_trace_json()
            } else {
                String::new()
            },
            surface_tail: if sys.machine.surface_enabled() {
                sys.surface_json()
            } else {
                String::new()
            },
            digest: state_digest(sys),
            snapshot: base_snapshot,
            journal: sys.machine.journal().to_vec(),
        }
    }

    /// Rebuilds the run's config: [`MachineConfig::test_small`] with the
    /// recorded deltas applied. [`EngineKind::build_system`] re-runs the
    /// engine's `adapt_machine`, exactly as the original run did.
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::test_small()
            .with_seed(self.seed)
            .with_fault_plan(self.fault_plan)
            .with_crash_plan(self.crash_plan);
        cfg.frames = self.frames;
        cfg.reserved_top_frames = self.reserved_top_frames;
        cfg.thp = self.thp;
        cfg
    }

    /// Builds a fresh system identical to the one the failing run started
    /// from (before the snapshot is restored into it).
    pub fn build_system(&self) -> System<Box<dyn FusionPolicy>> {
        self.kind.build_system(self.config())
    }

    /// Re-executes the failing run: restore the base snapshot, re-arm the
    /// crash plan if the original run had armed it, replay the journal,
    /// digest the result.
    pub fn replay(&self) -> Result<ReplayOutcome, SnapshotError> {
        let sys = self.replay_with(&self.journal)?;
        Ok(ReplayOutcome {
            digest_expected: self.digest,
            digest_replayed: state_digest(&sys),
            audit_violations: sys.machine.audit_frames(),
            crashes_fired: sys.machine.crashes_fired(),
        })
    }

    /// Like [`Self::replay`], but re-executes an arbitrary journal —
    /// typically a subset of `self.journal` proposed by the shrinker —
    /// and hands back the whole replayed system so the caller can run any
    /// invariant over it, not just the digest comparison.
    ///
    /// A bundle comes from disk, and a shrink candidate may drop the
    /// `Spawn` a later event needs, which renumbers the processes spawned
    /// after it: an event naming a process the replayed machine does not
    /// have, and an `Mmap` over an area its process already has, are
    /// refused as [`SnapshotError::Corrupt`] before they run, never a
    /// panic. The checks are against the live machine, so a spawn that
    /// fails on replay adds no process.
    pub fn replay_with(
        &self,
        journal: &[JournalEvent],
    ) -> Result<System<Box<dyn FusionPolicy>>, SnapshotError> {
        let mut sys = self.build_system();
        sys.restore(&self.snapshot)?;
        if self.crashes_armed {
            sys.machine.arm_crashes();
        }
        for ev in journal {
            if ev.pid().is_some_and(|p| p.0 >= sys.machine.process_count()) {
                return Err(MISSING_PID);
            }
            if let JournalEvent::Mmap { pid, vma } = ev {
                let space = &sys.machine.process(*pid).space;
                if space.vmas().iter().any(|v| v.overlaps(vma)) {
                    return Err(MAP_OVERLAP);
                }
            }
            sys.replay_event(ev);
        }
        Ok(sys)
    }

    /// Delta-debugs the journal down to a minimal failing core.
    ///
    /// `fails` inspects a replayed system and returns `Some(signature)`
    /// when it exhibits the failure (the signature identifies *which*
    /// failure — e.g. a hash of the violated invariant's name), `None`
    /// when it is healthy. The loop is the classic ddmin chunk
    /// elimination: partition the journal into `n` chunks, try dropping
    /// each chunk, keep any drop that still reproduces the *same*
    /// signature, double the granularity when nothing can be dropped.
    ///
    /// A candidate that [`Self::replay_with`] refuses (it dropped a
    /// `Spawn` a later event needs, so an event names a missing process
    /// or maps over another process's area) does not reproduce; a refused
    /// full journal returns the error.
    ///
    /// Returns `Ok(None)` when the full journal does not reproduce the
    /// failure (nothing to shrink — the failure is not journal-derived).
    /// Otherwise returns a [`ShrinkOutcome`] whose bundle carries the
    /// minimal journal and a recomputed digest, so `shrunk.replay()`
    /// reports `reproduced()` like any hand-captured bundle.
    ///
    /// `max_replays` bounds the search (each probe is a full
    /// restore+replay); the loop stops early and keeps its best-so-far
    /// journal when the budget runs out.
    pub fn shrink<F>(
        &self,
        mut fails: F,
        max_replays: u64,
    ) -> Result<Option<ShrinkOutcome>, SnapshotError>
    where
        F: FnMut(&System<Box<dyn FusionPolicy>>) -> Option<u64>,
    {
        let mut replays: u64 = 0;
        let mut probe =
            |journal: &[JournalEvent], replays: &mut u64| -> Result<Option<u64>, SnapshotError> {
                *replays += 1;
                let sys = self.replay_with(journal)?;
                Ok(fails(&sys))
            };
        let Some(target) = probe(&self.journal, &mut replays)? else {
            return Ok(None);
        };
        let mut current = self.journal.clone();
        let mut n: usize = 2;
        'outer: while current.len() >= 2 && replays < max_replays {
            let chunk = current.len().div_ceil(n);
            let mut start = 0;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let candidate: Vec<JournalEvent> = current[..start]
                    .iter()
                    .chain(current[end..].iter())
                    .cloned()
                    .collect();
                if candidate.len() < current.len()
                    && match probe(&candidate, &mut replays) {
                        Err(MISSING_PID | MAP_OVERLAP) => false,
                        other => other? == Some(target),
                    }
                {
                    // The dropped chunk was irrelevant: keep the smaller
                    // journal and re-partition it coarsely again.
                    current = candidate;
                    n = 2;
                    continue 'outer;
                }
                if replays >= max_replays {
                    break 'outer;
                }
                start = end;
            }
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
        // Rebuild a digest-stable bundle around the minimal journal so it
        // replays green through the ordinary `Bundle::replay` contract.
        let sys = self.replay_with(&current)?;
        let mut shrunk = self.clone();
        shrunk.digest = state_digest(&sys);
        shrunk.note = format!(
            "{} (shrunk from {} to {} events)",
            self.note,
            self.journal.len(),
            current.len()
        );
        shrunk.journal = current;
        shrunk.trace_tail = String::new();
        shrunk.surface_tail = String::new();
        Ok(Some(ShrinkOutcome {
            original_len: self.journal.len(),
            replays,
            signature: target,
            shrunk,
        }))
    }

    /// Serializes the bundle into a sealed, checksummed byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(kind_tag(self.kind));
        w.u64(self.frames);
        w.u64(self.reserved_top_frames);
        w.bool(self.thp);
        w.u64(self.seed);
        self.fault_plan.save(&mut w);
        self.crash_plan.save(&mut w);
        w.bool(self.crashes_armed);
        w.str(&self.note);
        w.str(&self.failing_step);
        w.str(&self.trace_tail);
        w.str(&self.surface_tail);
        w.u64(self.digest);
        w.blob(&self.snapshot);
        let mut jw = Writer::new();
        JournalEvent::save_all(&self.journal, &mut jw);
        w.blob(&jw.into_bytes());
        vusion_snapshot::seal(&w.into_bytes())
    }

    /// Deserializes a bundle written by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = vusion_snapshot::unseal(bytes)?;
        let mut r = Reader::new(payload);
        let kind = kind_from_tag(r.u8()?)?;
        let frames = r.u64()?;
        let reserved_top_frames = r.u64()?;
        let thp = r.bool()?;
        let seed = r.u64()?;
        let fault_plan = FaultPlan::load(&mut r)?;
        let crash_plan = CrashPlan::load(&mut r)?;
        let crashes_armed = r.bool()?;
        let note = r.str()?;
        let failing_step = r.str()?;
        let trace_tail = r.str()?;
        let surface_tail = r.str()?;
        let digest = r.u64()?;
        let snapshot = r.blob()?.to_vec();
        let jblob = r.blob()?;
        let mut jr = Reader::new(jblob);
        let journal = JournalEvent::load_all(&mut jr)?;
        Ok(Self {
            kind,
            frames,
            reserved_top_frames,
            thp,
            seed,
            fault_plan,
            crash_plan,
            crashes_armed,
            note,
            failing_step,
            trace_tail,
            surface_tail,
            digest,
            snapshot,
            journal,
        })
    }

    /// Writes the bundle into [`REPRO_DIR`], rotating so at most
    /// [`KEEP_BUNDLES`] bundles remain. Returns the path written.
    pub fn dump(&self) -> Result<PathBuf, BundleError> {
        self.dump_to(Path::new(REPRO_DIR))
    }

    /// [`Self::dump`] into an explicit directory (tests use a temp dir).
    pub fn dump_to(&self, dir: &Path) -> Result<PathBuf, BundleError> {
        fs::create_dir_all(dir)?;
        let stem: String = self
            .kind
            .label()
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        let mut n = 0u32;
        let path = loop {
            let p = dir.join(format!("{stem}-seed{:016x}-{n:03}.vbun", self.seed));
            if !p.exists() {
                break p;
            }
            n += 1;
        };
        fs::write(&path, self.to_bytes())?;
        if !self.trace_tail.is_empty() {
            // Openable directly in a Chrome-trace viewer, no unbundling.
            fs::write(path.with_extension("trace.json"), &self.trace_tail)?;
        }
        if !self.surface_tail.is_empty() {
            // Diffable directly against another run's surface artifact.
            fs::write(path.with_extension("surface.json"), &self.surface_tail)?;
        }
        rotate(dir, KEEP_BUNDLES)?;
        Ok(path)
    }

    /// Loads a bundle from disk.
    pub fn load(path: &Path) -> Result<Self, BundleError> {
        let bytes = fs::read(path)?;
        Ok(Self::from_bytes(&bytes)?)
    }
}

/// Bundle files in `dir`, oldest first (by modification time, ties broken
/// by name so rotation is stable within one filesystem-timestamp tick).
fn bundles_oldest_first(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_file() && path.extension().is_some_and(|e| e == "vbun") {
            let modified = entry
                .metadata()?
                .modified()
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            entries.push((modified, path));
        }
    }
    entries.sort();
    Ok(entries.into_iter().map(|(_, p)| p).collect())
}

/// Deletes the oldest bundles until at most `keep` remain.
fn rotate(dir: &Path, keep: usize) -> std::io::Result<()> {
    let paths = bundles_oldest_first(dir)?;
    if paths.len() > keep {
        for path in &paths[..paths.len() - keep] {
            fs::remove_file(path)?;
            for ext in ["trace.json", "surface.json"] {
                let sidecar = path.with_extension(ext);
                if sidecar.exists() {
                    fs::remove_file(sidecar)?;
                }
            }
        }
    }
    Ok(())
}

/// Newest bundle in `dir`, if any (what `examples/replay.rs` picks up).
pub fn latest_bundle(dir: &Path) -> std::io::Result<Option<PathBuf>> {
    Ok(bundles_oldest_first(dir)?.pop())
}
