//! Versioned, checksummed serialization substrate for checkpoint/restore.
//!
//! Every stateful component of the simulated machine — physical frames,
//! allocators, TLBs, clocks, RNG streams, and the fusion engines — can
//! save itself into a [`Writer`] and reload from a [`Reader`]. The crate
//! deliberately has **zero dependencies** (it sits below `mem` in the
//! workspace graph) and defines only the byte-level encoding plus the one
//! trait the rest of the workspace implements: [`Snapshot`], object-safe
//! save/load-in-place. Load is *into* an existing value because restore
//! always targets a freshly constructed machine of the same shape; fusion
//! engines implement it too, as a supertrait of the kernel's
//! `FusionPolicy`. [`resave`] is the round-trip check every implementor's
//! unit test runs.
//!
//! # Wire format
//!
//! A sealed snapshot is
//!
//! ```text
//! "VSNP" | version: u32 LE | payload bytes... | xxh64(header+payload, seed 0): u64 LE
//! ```
//!
//! The trailing XXH64 checksum covers magic, version and payload, so a
//! truncated or bit-flipped bundle is rejected before any field decodes.
//! Inside the payload, all integers are little-endian; `usize` travels as
//! `u64`; `f64` travels as its IEEE-754 bit pattern; strings and blobs are
//! length-prefixed. Maps are always written in sorted key order so that
//! two snapshots of identical logical state are byte-identical.

use std::fmt;

/// Current snapshot wire-format version. Bump on any incompatible layout
/// change; [`unseal`] rejects mismatches with [`SnapshotError::BadVersion`].
/// v2: pressure-governor state in the system frame, `budget_used` in scan
/// totals, and resumable-pass cursors in the engine blobs.
/// v3: failure bundles gained a side-channel surface sidecar slot
/// (`surface_tail`) in their sealed wire format.
/// v4: the journal event vocabulary gained `Clflush` (wire tag 13), so a
/// v3 reader would reject journals recorded by v4 code.
/// v5: the seal's trailing checksum is XXH64 (seed 0) instead of FNV-1a;
/// the payload layout is unchanged.
/// v6: the engine blobs lost the rung-3 deferral flag (pressure reaches
/// engines only as a per-wake grant) and the machine frame lost the
/// unused `policy_rng` state.
/// v7: WPF's engine blob holds a red-black tree instead of an AVL tree,
/// and its sorted list of tree frames is gone.
/// v8: every engine's content index is an arena of slots (a live flag,
/// then frame and value) plus its free list, with no tree links, colors,
/// root or length; KSM's stable nodes carry no value and its unstable
/// entries no frame; VUsion's blob lost two fixed settings (the RA trace
/// cap and the deferred-free drain per wake).
/// v9: the system frame lost the scan totals; the machine frame gained the
/// six scan counts after its counters and lost the `injected_faults` word;
/// the engine blobs lost the five stats that repeated a scan count (KSM's
/// `huge_broken`, VUsion's `merged`, `fake_merged` and `huge_broken`,
/// WPF's `merged`); the governor config, in snapshots and journal events,
/// lost its eight fixed settings, and khugepaged lost its three.
/// v10: the machine frame lost the jitter band, the LLC line size and the
/// DRAM row size; KSM's engine blob lost its scan period and VUsion's its
/// scan period and pages per wake; failure bundles lost the weak-row
/// fraction, and their digest covers the whole sealed system snapshot.
pub const FORMAT_VERSION: u32 = 10;

/// Magic bytes opening every sealed snapshot or failure bundle.
pub const MAGIC: &[u8; 4] = b"VSNP";

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// The leading magic bytes are not `VSNP`.
    BadMagic,
    /// The format version does not match [`FORMAT_VERSION`].
    BadVersion {
        /// Version found in the stream.
        found: u32,
    },
    /// The trailing XXH64 checksum does not match the content.
    ChecksumMismatch,
    /// A field decoded to a value that cannot describe a real machine
    /// (unknown enum tag, mismatched geometry, out-of-range index, ...).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic => write!(f, "snapshot magic is not VSNP"),
            Self::BadVersion { found } => {
                write!(f, "snapshot version {found} (expected {FORMAT_VERSION})")
            }
            Self::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            Self::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte slice: the identity digest of traces, campaign
/// labels and failure-bundle signatures. Its values are pinned by those
/// artifacts, so it must never change.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only byte sink for serialization.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the raw (unsealed) payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes raw bytes with no length prefix (caller knows the length).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed byte blob.
    pub fn blob(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.bytes(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.blob(v.as_bytes());
    }

    /// Writes a length-prefixed slice of `u64`s.
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }
}

/// Cursor over a payload produced by [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Frame ids [`Self::frame`] accepts: those below this count.
    frames: u64,
    /// Process ids [`Self::pid`] accepts: those below this count.
    processes: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`, with no bound on the ids
    /// [`Self::frame`] and [`Self::pid`] accept.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            frames: u64::MAX,
            processes: usize::MAX,
        }
    }

    /// Bounds the ids this reader accepts by the machine the decoded state
    /// will run on: its frame count and its process count. A restore sets
    /// them, so a stored id the machine would index past its end is
    /// [`SnapshotError::Corrupt`] at load, not a panic at the next access.
    pub fn with_id_bounds(self, frames: u64, processes: usize) -> Self {
        Self {
            frames,
            processes,
            ..self
        }
    }

    /// Reads a physical frame id, rejecting one past the bound.
    pub fn frame(&mut self) -> Result<u64, SnapshotError> {
        let frame = self.u64()?;
        if frame >= self.frames {
            return Err(SnapshotError::Corrupt("frame id past the machine's memory"));
        }
        Ok(frame)
    }

    /// Reads a process id, rejecting one past the bound.
    pub fn pid(&mut self) -> Result<usize, SnapshotError> {
        let pid = self.usize()?;
        if pid >= self.processes {
            return Err(SnapshotError::Corrupt("pid past the machine's processes"));
        }
        Ok(pid)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` written by [`Writer::usize`], rejecting values that
    /// do not fit the host.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Reads a bool, rejecting bytes other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool out of range")),
        }
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Reads a length-prefixed blob.
    pub fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let b = self.blob()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::Corrupt("invalid utf-8"))
    }

    /// Reads a length-prefixed slice of `u64`s.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len_prefix(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Reads the length prefix of a sequence whose elements each take at
    /// least `min_bytes` (one or more) on the wire. A count that many
    /// elements could not fit in the remaining bytes is
    /// [`SnapshotError::Truncated`], so a decoder may size its buffer from
    /// the result: a crafted prefix can never make the host allocate more
    /// than the stream could describe.
    pub fn len_prefix(&mut self, min_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Succeeds only if every byte has been consumed. Bytes left over mean
    /// the stream was written by a `save` its `load` does not match.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("unread bytes after the last field"))
        }
    }
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn le64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh64_merge(acc: u64, v: u64) -> u64 {
    (acc ^ xxh64_round(0, v))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 with seed 0, after the published xxHash specification: four
/// independent lanes over 32-byte stripes, then the 8-, 4- and 1-byte
/// tails, then the avalanche. Each round folds 8 bytes into one lane and
/// the four lanes do not wait on each other, where FNV-1a spends one
/// dependent multiply per byte — which made it most of the cost of
/// sealing a multi-megabyte snapshot.
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut rest = stripes.remainder();
    let mut acc = if bytes.len() >= 32 {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for s in stripes {
            v[0] = xxh64_round(v[0], le64(&s[0..]));
            v[1] = xxh64_round(v[1], le64(&s[8..]));
            v[2] = xxh64_round(v[2], le64(&s[16..]));
            v[3] = xxh64_round(v[3], le64(&s[24..]));
        }
        let acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(acc, |acc, &lane| xxh64_merge(acc, lane))
    } else {
        PRIME64_5
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        acc = (acc ^ xxh64_round(0, le64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let mut a = [0u8; 4];
        a.copy_from_slice(&rest[..4]);
        acc = (acc ^ u64::from(u32::from_le_bytes(a)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        acc = (acc ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(PRIME64_2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(PRIME64_3);
    acc ^ (acc >> 32)
}

/// Seals a payload: magic + version + payload + trailing XXH64 checksum.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(payload);
    let sum = xxh64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates magic, version and checksum, returning the inner payload.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if &body[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut vb = [0u8; 4];
    vb.copy_from_slice(&body[4..8]);
    let version = u32::from_le_bytes(vb);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }
    let mut sb = [0u8; 8];
    sb.copy_from_slice(tail);
    if xxh64(body) != u64::from_le_bytes(sb) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(&body[8..])
}

/// Object-safe save/load-in-place serialization.
///
/// `load` mutates `self` rather than constructing a new value because the
/// restore path always starts from a freshly built machine of the same
/// configuration; this keeps the trait usable through `dyn` (e.g. boxed
/// fusion policies).
///
/// Implementations open `load` with an exhaustive `let Self { … } = self;`
/// (no `..`), so adding a field stops the build there, and check
/// field order with a [`resave`] unit test.
pub trait Snapshot {
    /// Appends this value's full state to `w`.
    fn save(&self, w: &mut Writer);
    /// Overwrites `self` with state previously written by [`Self::save`].
    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

impl<T: Snapshot + ?Sized> Snapshot for Box<T> {
    fn save(&self, w: &mut Writer) {
        (**self).save(w)
    }

    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        (**self).load(r)
    }
}

/// Round-trips `src` through `dst`: saves `src`, loads that image into
/// `dst`, requires the load to consume every byte, and saves `dst`.
/// Returns both images. Each `Snapshot` implementor's unit test gives
/// every serialized field of `src` a distinct non-default value and
/// asserts the images are equal: a field `save` skips shifts the reads
/// after it, a field `load` skips leaves bytes unread (an error here) or
/// keeps `dst`'s value, and two reads in the wrong order swap values.
pub fn resave<T: Snapshot + ?Sized>(
    src: &T,
    dst: &mut T,
) -> Result<(Vec<u8>, Vec<u8>), SnapshotError> {
    let mut w = Writer::new();
    src.save(&mut w);
    let first = w.into_bytes();
    let mut r = Reader::new(&first);
    dst.load(&mut r)?;
    r.finish()?;
    let mut w = Writer::new();
    dst.save(&mut w);
    Ok((first, w.into_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.usize(12345);
        w.bool(true);
        w.bool(false);
        w.f64(0.25);
        w.str("hello snapshot");
        w.blob(&[1, 2, 3]);
        w.u64s(&[9, 8, 7]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 3));
        assert_eq!(r.usize(), Ok(12345));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.f64(), Ok(0.25));
        assert_eq!(r.str().as_deref(), Ok("hello snapshot"));
        assert_eq!(r.blob(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.u64s(), Ok(vec![9, 8, 7]));
        assert!(r.is_empty());
    }

    #[test]
    fn length_prefixes_must_fit_the_remaining_bytes() {
        let mut w = Writer::new();
        w.usize(3);
        w.bytes(&[0; 24]);
        w.usize(usize::MAX >> 8);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.len_prefix(8), Ok(3));
        assert_eq!(r.bytes(24).map(<[u8]>::len), Ok(24));
        assert_eq!(r.len_prefix(1), Err(SnapshotError::Truncated));
        // Three 11-byte elements cannot fit in the 32 bytes after the prefix.
        let mut r = Reader::new(&bytes);
        assert_eq!(r.len_prefix(11), Err(SnapshotError::Truncated));
        let mut r = Reader::new(&bytes[..8]);
        assert_eq!(r.u64s(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn ids_are_read_within_their_bounds() {
        let mut w = Writer::new();
        for id in [15, 16, 2, 3] {
            w.u64(id);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes).with_id_bounds(16, 3);
        assert_eq!(r.frame(), Ok(15));
        assert!(matches!(r.frame(), Err(SnapshotError::Corrupt(_))));
        assert_eq!(r.pid(), Ok(2));
        assert!(matches!(r.pid(), Err(SnapshotError::Corrupt(_))));
        let mut r = Reader::new(&bytes);
        assert_eq!((r.frame(), r.frame()), (Ok(15), Ok(16)), "unbounded");
    }

    #[test]
    fn finish_rejects_unread_bytes() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8(), Ok(1));
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt(_))));
        assert_eq!(r.u8(), Ok(2));
        assert_eq!(r.finish(), Ok(()));
    }

    /// A two-field type with a deliberately faulty `load` variant, to
    /// show what [`resave`] catches.
    #[derive(Default)]
    struct Pair {
        a: u64,
        b: u64,
        fault: Option<&'static str>,
    }

    impl Snapshot for Pair {
        fn save(&self, w: &mut Writer) {
            w.u64(self.a);
            w.u64(self.b);
        }

        fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
            match self.fault {
                None => {
                    self.a = r.u64()?;
                    self.b = r.u64()?;
                }
                Some("swap") => {
                    self.b = r.u64()?;
                    self.a = r.u64()?;
                }
                Some(_) => self.a = r.u64()?,
            }
            Ok(())
        }
    }

    #[test]
    fn resave_catches_swapped_and_skipped_reads() {
        let src = Pair {
            a: 1,
            b: 2,
            fault: None,
        };
        let (a, b) = resave(&src, &mut Pair::default()).expect("resave");
        assert_eq!(a, b);
        let mut swapped = Pair {
            fault: Some("swap"),
            ..Pair::default()
        };
        let (a, b) = resave(&src, &mut swapped).expect("resave");
        assert_ne!(a, b);
        let mut skipped = Pair {
            fault: Some("skip"),
            ..Pair::default()
        };
        assert!(matches!(
            resave(&src, &mut skipped),
            Err(SnapshotError::Corrupt(_))
        ));
        // Through a box, as the kernel stores boxed engines.
        let boxed = Box::new(src);
        let (a, b) = resave(&boxed, &mut Box::<Pair>::default()).expect("resave");
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = Writer::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn seal_and_unseal() {
        let mut w = Writer::new();
        w.str("payload");
        let sealed = seal(&w.into_bytes());
        let inner = unseal(&sealed).expect("unseal");
        let mut r = Reader::new(inner);
        assert_eq!(r.str().as_deref(), Ok("payload"));
    }

    #[test]
    fn unseal_rejects_corruption() {
        let sealed = seal(b"abc");
        // Magic.
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert_eq!(unseal(&bad), Err(SnapshotError::BadMagic));
        // Version.
        let mut bad = sealed.clone();
        bad[4] = 0xff;
        assert!(matches!(
            unseal(&bad),
            Err(SnapshotError::BadVersion { .. })
        ));
        // Payload flip.
        let mut bad = sealed.clone();
        bad[9] ^= 1;
        assert_eq!(unseal(&bad), Err(SnapshotError::ChecksumMismatch));
        // Truncation.
        assert_eq!(unseal(&sealed[..10]), Err(SnapshotError::Truncated));
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // Three stripes and a 4-byte tail.
        let bytes: Vec<u8> = (0..100u8).collect();
        assert_eq!(xxh64(&bytes), 0x6AC1_E580_3216_6597);
        // One stripe, then an 8-, a 4- and three 1-byte tails.
        assert_eq!(xxh64(&bytes[..47]), 0x0D98_83A0_3E7B_FBB8);
    }

    #[test]
    fn seal_layout_is_pinned() {
        let mut want = b"VSNP\x0a\x00\x00\x00abc".to_vec();
        want.extend_from_slice(&[0xc2, 0xd7, 0x0f, 0x42, 0x0d, 0xea, 0xfd, 0x56]);
        assert_eq!(seal(b"abc"), want);
    }

    #[test]
    fn unseal_rejects_every_bit_flip_and_prefix() {
        let mut flips = 0;
        for len in [0usize, 1, 7, 24, 31, 32, 33, 100, 300] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let sealed = seal(&payload);
            assert_eq!(unseal(&sealed), Ok(&payload[..]));
            for pos in 0..sealed.len() {
                for bit in 0..8 {
                    let want = match pos {
                        0..=3 => SnapshotError::BadMagic,
                        4..=7 => SnapshotError::BadVersion {
                            found: FORMAT_VERSION ^ (1 << (8 * (pos - 4) + bit)),
                        },
                        _ => SnapshotError::ChecksumMismatch,
                    };
                    let mut bad = sealed.clone();
                    bad[pos] ^= 1 << bit;
                    assert_eq!(unseal(&bad), Err(want), "len {len} byte {pos} bit {bit}");
                    flips += 1;
                }
            }
            for cut in 0..sealed.len() {
                let want = if cut < 16 {
                    SnapshotError::Truncated
                } else {
                    SnapshotError::ChecksumMismatch
                };
                assert_eq!(unseal(&sealed[..cut]), Err(want), "len {len} cut {cut}");
            }
        }
        assert_eq!(flips, 5376);
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(SnapshotError::Truncated.to_string(), "snapshot truncated");
        assert_eq!(
            SnapshotError::BadVersion { found: 8 }.to_string(),
            format!("snapshot version 8 (expected {FORMAT_VERSION})")
        );
        assert!(SnapshotError::Corrupt("x").to_string().contains("x"));
    }
}
