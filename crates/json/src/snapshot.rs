//! Crash-safe snapshot persistence: a checksummed, versioned container
//! for checkpoint and state files, written atomically and durably.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"VODSNAP2" (the container version)
//! 8       1     kind length K (short ASCII tag, e.g. "solver-checkpoint")
//! 9       K     kind bytes
//! 9+K     4     payload format version (u32)
//! 13+K    8     payload length N (u64)
//! 21+K    8     checksum of the payload bytes (u64)
//! 29+K    N     payload
//! ```
//!
//! The checksum of `VODSNAP2` is `word_sum64`: the payload folded in
//! as 8-byte little-endian words, each by a step that is a bijection of
//! the running state, then the tail bytes and the length. A change
//! confined to one word therefore always changes the sum, and the fold
//! costs one multiply per 8 bytes where FNV-1a costs one per byte.
//! Writers write only `VODSNAP2`. Readers also accept the previous
//! version, `VODSNAP1`, whose header is identical and whose checksum is
//! [`fnv1a64`], so a service upgraded mid-cycle keeps its state and
//! checkpoint; the next write of each file is a `VODSNAP2`. Any other
//! magic is [`SnapshotError::BadMagic`].
//!
//! Readers return a typed [`SnapshotError`] on *any* malformed input —
//! truncation, bit flips, wrong kind, wrong version — and never panic:
//! a crashed writer or a corrupted disk must degrade into a recovery
//! path, not take the supervisor down with it.
//!
//! Every write goes through one writer, in this order, into a sibling
//! `*.tmp` file — uniquely named per call, so concurrent writers of one
//! destination never share it:
//!
//! 1. the header's bytes are reserved (written as zeros);
//! 2. the payload is streamed in behind them, its word sum and length
//!    folded as it goes — a byte slice in one write, a [`Wire`] value
//!    ([`FaultHandle::write_wire_snapshot`], how the service writes its
//!    state, checkpoint and fractional artifact) as its compact text
//!    through a buffer of [`SPILL_AT`] bytes, so the text is never whole
//!    in memory;
//! 3. the real header is written over the reservation — last, and
//!    before the barrier;
//! 4. the temp file is `sync_all`ed, `rename`d over the destination,
//!    and the directory is `sync_all`ed.
//!
//! The first barrier keeps the rename from publishing bytes that are
//! not on the device; the second makes the rename itself survive power
//! loss. A reader never observes a half-written snapshot (rename is
//! atomic on POSIX filesystems), and a temp file left by a crash before
//! step 3 holds a zero header, which no reader accepts. The `xtask`
//! lint rule `snapshot-io` pins this: direct `File::create`/`fs::write`
//! on snapshot paths is denied elsewhere in the workspace.

use crate::faults::{FaultHandle, IoFault};
use crate::wire::{CompactText, Sink, Wire};
use crate::{JsonError, Value};
use std::fmt;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic of the container version every writer writes.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"VODSNAP2";
/// File magic of the previous container version, still read: the same
/// header, checksummed with [`fnv1a64`].
const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"VODSNAP1";

/// Header bytes before the kind tag: magic + kind length.
const FIXED_PREFIX: usize = 8 + 1;
/// Header bytes after the kind tag: version + payload length + checksum.
const FIXED_SUFFIX: usize = 4 + 8 + 8;

/// Typed failure of a snapshot read or write. Every variant is a
/// recoverable condition; none of the decode paths can panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error (file missing, permissions, rename failure).
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// The file ends before the declared header + payload.
    Truncated { expected: usize, found: usize },
    /// The first bytes are neither `VODSNAP2` nor `VODSNAP1` — not a
    /// snapshot this build reads.
    BadMagic,
    /// The snapshot holds a different kind of state than requested.
    KindMismatch { expected: String, found: String },
    /// The payload was written by an incompatible format version.
    VersionMismatch { expected: u32, found: u32 },
    /// The payload checksum does not match: bytes were altered.
    ChecksumMismatch { expected: u64, found: u64 },
    /// Structurally invalid contents (bad UTF-8, trailing bytes, or an
    /// undecodable payload).
    Malformed { what: String },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot io error at {}: {source}", path.display())
            }
            SnapshotError::Truncated { expected, found } => {
                write!(f, "snapshot truncated: need {expected} bytes, have {found}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot kind mismatch: expected {expected:?}, found {found:?}"
                )
            }
            SnapshotError::VersionMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot version mismatch: expected {expected}, found {found}"
                )
            }
            SnapshotError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
                )
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash: the identity of a placement, a config, a repair
/// plan, and the payload checksum of `VODSNAP1` containers. Not
/// cryptographic.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The payload checksum of `VODSNAP2` containers. Each step xors one
/// 8-byte little-endian word into the state, multiplies by an odd
/// constant and rotates: three bijections, so for a fixed word the step
/// is a bijection of the state, and for a fixed state a bijection of
/// the word. Two inputs of one length that differ in a single word
/// therefore reach different states there and stay different to the
/// end. The tail bytes go in as one zero-padded word, then the length.
/// Not cryptographic: it guards against truncation and bit rot, not
/// adversaries.
fn word_sum64(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let h = words.fold(WORD_SUM_SEED, |h, w| {
        word_step(h, w.try_into().map_or(0, u64::from_le_bytes))
    });
    word_step(word_step(h, u64::from_le_bytes(tail)), bytes.len() as u64)
}

/// The state [`word_sum64`] starts from.
const WORD_SUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of [`word_sum64`].
fn word_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// [`word_sum64`] folded piece by piece, as a streamed payload reaches
/// the file. A piece need not end on a word boundary: its last partial
/// word is carried into the next piece.
#[derive(Debug, Clone, Copy)]
struct WordSum {
    h: u64,
    len: u64,
    carry: [u8; 8],
    carried: usize,
}

impl Default for WordSum {
    fn default() -> Self {
        WordSum {
            h: WORD_SUM_SEED,
            len: 0,
            carry: [0; 8],
            carried: 0,
        }
    }
}

impl WordSum {
    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.carried > 0 {
            let n = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + n].copy_from_slice(&bytes[..n]);
            self.carried += n;
            bytes = &bytes[n..];
            if self.carried < 8 {
                return;
            }
            self.h = word_step(self.h, u64::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let words = bytes.chunks_exact(8);
        let rest = words.remainder();
        self.h = words.fold(self.h, |h, w| {
            word_step(h, w.try_into().map_or(0, u64::from_le_bytes))
        });
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    /// The sum of every byte folded in: [`word_sum64`] of their
    /// concatenation.
    fn finish(&self) -> u64 {
        let mut tail = [0u8; 8];
        tail[..self.carried].copy_from_slice(&self.carry[..self.carried]);
        word_step(word_step(self.h, u64::from_le_bytes(tail)), self.len)
    }
}

/// A container's kind tag and payload version: what its header says
/// besides the payload's length and sum.
#[derive(Debug, Clone, Copy)]
struct Head<'a> {
    kind: &'a str,
    kind_len: u8,
    version: u32,
}

impl<'a> Head<'a> {
    fn new(kind: &'a str, version: u32) -> Result<Self, SnapshotError> {
        let Ok(kind_len) = u8::try_from(kind.len()) else {
            return Err(SnapshotError::Malformed {
                what: format!("kind tag too long ({} bytes, max 255)", kind.len()),
            });
        };
        Ok(Head {
            kind,
            kind_len,
            version,
        })
    }

    fn len(&self) -> usize {
        FIXED_PREFIX + self.kind.len() + FIXED_SUFFIX
    }

    /// The header of a payload of `len` bytes summing to `sum`.
    fn bytes(&self, len: u64, sum: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(self.kind_len);
        out.extend_from_slice(self.kind.as_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Decode a snapshot container of either version, checking magic, kind,
/// version and checksum. Returns the payload: the tail of `bytes`, not a
/// copy.
pub fn decode<'a>(bytes: &'a [u8], kind: &str, version: u32) -> Result<&'a [u8], SnapshotError> {
    let need = |n: usize| -> Result<(), SnapshotError> {
        if bytes.len() < n {
            Err(SnapshotError::Truncated {
                expected: n,
                found: bytes.len(),
            })
        } else {
            Ok(())
        }
    };
    need(FIXED_PREFIX)?;
    let checksum: fn(&[u8]) -> u64 = match &bytes[..8] {
        m if m == SNAPSHOT_MAGIC => word_sum64,
        m if m == SNAPSHOT_MAGIC_V1 => fnv1a64,
        _ => return Err(SnapshotError::BadMagic),
    };
    let kind_len = usize::from(bytes[8]);
    let kind_end = FIXED_PREFIX + kind_len;
    need(kind_end + FIXED_SUFFIX)?;
    let found_kind = match std::str::from_utf8(&bytes[FIXED_PREFIX..kind_end]) {
        Ok(s) => s,
        Err(_) => {
            return Err(SnapshotError::Malformed {
                what: "kind tag is not UTF-8".to_string(),
            })
        }
    };
    if found_kind != kind {
        return Err(SnapshotError::KindMismatch {
            expected: kind.to_string(),
            found: found_kind.to_string(),
        });
    }
    let le_u32 = |at: usize| -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&bytes[at..at + 4]);
        u32::from_le_bytes(b)
    };
    let le_u64 = |at: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(b)
    };
    let found_version = le_u32(kind_end);
    if found_version != version {
        return Err(SnapshotError::VersionMismatch {
            expected: version,
            found: found_version,
        });
    }
    let payload_len = le_u64(kind_end + 4);
    let declared_sum = le_u64(kind_end + 12);
    let body = kind_end + FIXED_SUFFIX;
    let Some(payload_len) = usize::try_from(payload_len).ok().filter(|n| {
        // A length that overflows the file size is truncation (or a
        // corrupt length field — indistinguishable, same recovery).
        body.checked_add(*n).is_some()
    }) else {
        return Err(SnapshotError::Truncated {
            expected: usize::MAX,
            found: bytes.len(),
        });
    };
    need(body + payload_len)?;
    if bytes.len() > body + payload_len {
        return Err(SnapshotError::Malformed {
            what: format!(
                "{} trailing bytes after declared payload",
                bytes.len() - body - payload_len
            ),
        });
    }
    let payload = &bytes[body..];
    let actual = checksum(payload);
    if actual != declared_sum {
        return Err(SnapshotError::ChecksumMismatch {
            expected: declared_sum,
            found: actual,
        });
    }
    Ok(payload)
}

/// Sibling temp path for the atomic write: `<file>.<pid>-<n>.tmp` in
/// the same directory (rename is only atomic within one filesystem).
/// Unique per call — process id plus a process-wide counter — so two
/// writers of one destination never share a temp file and the last
/// rename wins whole. No clock and no RNG: the name never reaches a
/// payload, and the writers stay determinism-taint clean.
fn tmp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".{}-{n}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Write raw bytes atomically and durably: temp file in the same
/// directory, `sync_all`, rename over the destination, `sync_all` of
/// the directory. On success a reader at any instant — after a crash or
/// a power loss too — sees either the old complete file or the new
/// complete file, never a partial write. On *any* failure — real or
/// injected through a [`FaultHandle`] — the temp file is removed
/// best-effort, so a failed write leaves the destination untouched and
/// no stray `*.tmp` behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    write_parts(path, None, None, |body| body.payload(bytes))
}

/// Bytes of compact text a streamed [`Wire`] payload buffers before
/// they go to the file.
const SPILL_AT: usize = 64 * 1024;

/// The temp file a write streams into. Every byte goes through
/// [`Body::raw`], which lands at most `room` of them (a torn write's
/// budget), and every payload byte through [`Body::payload`], which
/// also folds it into the sum the header is written with. The first
/// error is kept, and nothing is written after it.
struct Body {
    file: std::fs::File,
    sum: WordSum,
    room: usize,
    err: Option<std::io::Error>,
}

impl Body {
    fn raw(&mut self, bytes: &[u8]) {
        if self.err.is_none() {
            let n = bytes.len().min(self.room);
            self.room -= n;
            self.err = self.file.write_all(&bytes[..n]).err();
        }
    }

    fn payload(&mut self, bytes: &[u8]) {
        self.sum.update(bytes);
        self.raw(bytes);
    }
}

/// A [`Wire`] value's compact text on its way into a [`Body`]: printed
/// into a buffer that is drained into the file whenever it holds
/// [`SPILL_AT`] bytes, so the whole text never exists.
struct Spill<'a> {
    text: CompactText,
    body: &'a mut Body,
}

impl Spill<'_> {
    fn drain(&mut self) {
        let buf = self.text.buffer();
        self.body.payload(buf.as_bytes());
        buf.clear();
    }
}

/// The [`Sink`] methods of [`Spill`]: print, then drain a full buffer.
macro_rules! spilled {
    ($($event:ident($($arg:ident: $t:ty),*)),* $(,)?) => {$(
        fn $event(&mut self, $($arg: $t),*) {
            self.text.$event($($arg),*);
            if self.text.buffer().len() >= SPILL_AT {
                self.drain();
            }
        }
    )*};
}

impl Sink for Spill<'_> {
    spilled!(
        null(),
        bool(b: bool),
        num(x: f64),
        str(s: &str),
        hex(bits: u64),
        begin_arr(),
        end_arr(),
        begin_obj(),
        key(k: &str),
        end_obj(),
    );
}

/// The one snapshot writer: the payload `fill` puts into a temp file,
/// behind the container header `head` (none for raw bytes), made
/// durable and renamed over `path`. `fault` is this write's injected
/// fault, if any.
fn write_parts(
    path: &Path,
    head: Option<Head<'_>>,
    fault: Option<IoFault>,
    fill: impl FnOnce(&mut Body),
) -> Result<(), SnapshotError> {
    let tmp = tmp_path(path);
    let result = write_parts_inner(path, &tmp, head, fault, fill);
    if result.is_err() {
        // Best-effort: the partial temp file is garbage whether the
        // failure was a short write or a failed rename. Ignoring the
        // secondary error is deliberate — the primary one is reported.
        // (Removal is never faulted: an injected fault must never make
        // its own debris uncollectable.)
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_parts_inner(
    path: &Path,
    tmp: &Path,
    head: Option<Head<'_>>,
    fault: Option<IoFault>,
    fill: impl FnOnce(&mut Body),
) -> Result<(), SnapshotError> {
    let io_err = |p: &Path, source: std::io::Error| SnapshotError::Io {
        path: p.to_path_buf(),
        source,
    };
    if fault == Some(IoFault::WriteEnospc) {
        return Err(io_err(tmp, crate::faults::enospc()));
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "this is the atomic write every snapshot writer routes through, \
                  and `fault` above is this write's injected fault"
    )]
    let file = std::fs::File::create(tmp).map_err(|e| io_err(tmp, e))?;
    let mut body = Body {
        file,
        sum: WordSum::default(),
        // A torn write lands this many bytes of the file, then the
        // device runs out of space.
        room: match fault {
            Some(IoFault::WritePartial { keep }) => keep,
            _ => usize::MAX,
        },
        err: None,
    };
    // The header's bytes are reserved until the payload's length and
    // sum are known.
    if let Some(head) = head {
        body.raw(&vec![0; head.len()]);
    }
    fill(&mut body);
    let Body {
        mut file, sum, err, ..
    } = body;
    if let Some(e) = err {
        return Err(io_err(tmp, e));
    }
    if matches!(fault, Some(IoFault::WritePartial { .. })) {
        return Err(io_err(tmp, crate::faults::enospc()));
    }
    if let Some(head) = head {
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.write_all(&head.bytes(sum.len, sum.finish())))
            .map_err(|e| io_err(tmp, e))?;
    }
    // The bytes are written but the barrier fails: the rename is never
    // attempted, and the destination keeps its old contents.
    if fault == Some(IoFault::FsyncFail) {
        return Err(io_err(tmp, crate::faults::eio()));
    }
    file.sync_all().map_err(|e| io_err(tmp, e))?;
    drop(file);
    std::fs::rename(tmp, path).map_err(|e| io_err(path, e))?;
    // The rename is an update of the directory: durable once it is.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the directory is opened only to be synced, as the last step \
                  of the write `fault` was drawn for"
    )]
    // lint:allow(determinism-taint): nothing is read from the handle;
    // its one use is the directory barrier, so no byte reaches a payload.
    let dir_handle = std::fs::File::open(dir).map_err(|e| io_err(dir, e))?;
    dir_handle.sync_all().map_err(|e| io_err(dir, e))
}

/// Write a checksummed snapshot atomically and durably.
pub fn write_snapshot_atomic(
    path: &Path,
    kind: &str,
    version: u32,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let head = Head::new(kind, version)?;
    write_parts(path, Some(head), None, |body| body.payload(payload))
}

/// The snapshot read: `fault` (this read's injected fault, if any)
/// fails it with `EIO` exactly like an unreadable sector would.
#[expect(
    clippy::disallowed_methods,
    reason = "`fault` above is this read's injected fault; every snapshot reader funnels through here"
)]
fn read_all(path: &Path, fault: Option<IoFault>) -> Result<Vec<u8>, SnapshotError> {
    let io_err = |source: std::io::Error| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    };
    if fault == Some(IoFault::ReadEio) {
        return Err(io_err(crate::faults::eio()));
    }
    std::fs::read(path).map_err(io_err)
}

/// Read and verify a snapshot, returning the payload bytes.
pub fn read_snapshot(path: &Path, kind: &str, version: u32) -> Result<Vec<u8>, SnapshotError> {
    payload_of(read_all(path, None)?, kind, version)
}

/// The payload of a snapshot file's bytes: the header is cut off the
/// front of the file buffer, no second buffer.
fn payload_of(mut bytes: Vec<u8>, kind: &str, version: u32) -> Result<Vec<u8>, SnapshotError> {
    let header = bytes.len() - decode(&bytes, kind, version)?.len();
    bytes.drain(..header);
    Ok(bytes)
}

/// Write a [`Value`] payload as a checksummed snapshot.
pub fn write_json_snapshot(
    path: &Path,
    kind: &str,
    version: u32,
    value: &Value,
) -> Result<(), SnapshotError> {
    write_snapshot_atomic(path, kind, version, value.to_string_pretty().as_bytes())
}

/// Read a snapshot whose payload is a JSON document, as a [`Value`].
/// For tools and tests that want the tree; a typed payload is read from
/// its text instead ([`crate::wire::Wire::from_text`]).
pub fn read_json_snapshot(path: &Path, kind: &str, version: u32) -> Result<Value, SnapshotError> {
    let bytes = read_all(path, None)?;
    let payload = decode(&bytes, kind, version)?;
    let text = std::str::from_utf8(payload).map_err(|_| SnapshotError::Malformed {
        what: "payload is not UTF-8".to_string(),
    })?;
    Value::parse(text).map_err(|e: JsonError| SnapshotError::Malformed {
        what: format!("payload is not valid JSON: {e}"),
    })
}

/// The snapshot functions under a fault schedule: each call is one
/// operation of the handle's count, failed when its plan says so.
impl FaultHandle {
    /// [`write_snapshot_atomic`], faulted by this handle's schedule.
    pub fn write_snapshot_atomic(
        &self,
        path: &Path,
        kind: &str,
        version: u32,
        payload: &[u8],
    ) -> Result<(), SnapshotError> {
        let head = Head::new(kind, version)?;
        write_parts(path, Some(head), self.next_write(), |body| {
            body.payload(payload);
        })
    }

    /// [`FaultHandle::write_snapshot_atomic`] of `value`'s compact text
    /// ([`Wire::compact`]), streamed: the text is never whole in memory.
    pub fn write_wire_snapshot(
        &self,
        path: &Path,
        kind: &str,
        version: u32,
        value: &impl Wire,
    ) -> Result<(), SnapshotError> {
        let head = Head::new(kind, version)?;
        write_parts(path, Some(head), self.next_write(), |body| {
            let mut spill = Spill {
                text: CompactText::default(),
                body,
            };
            value.emit(&mut spill);
            spill.drain();
        })
    }

    /// [`read_snapshot`], faulted by this handle's schedule.
    pub fn read_snapshot(
        &self,
        path: &Path,
        kind: &str,
        version: u32,
    ) -> Result<Vec<u8>, SnapshotError> {
        payload_of(read_all(path, self.next_read())?, kind, version)
    }
}

// ---------------------------------------------------------------------------
// Bit-exact numeric encoding.
//
// JSON `Value` carries every number as `f64` and prints non-finite
// values as `null`, so neither `u64` counters above 2^53 nor exact
// float bit patterns survive a plain `Num` round trip. Checkpoints —
// whose whole point is byte-identical resume — therefore encode f64s
// and u64s as fixed-width hex strings of their bit patterns (the
// `u64`/`f64` rows of the `wire` codec).
// ---------------------------------------------------------------------------

/// The one hex form the `wire` codec writes: exactly 16 digits of
/// `[0-9a-f]`. Stricter than `u64::from_str_radix`, which also takes a
/// sign and upper case — two texts for one value, where resume
/// identity is argued from "the encoding is canonical".
pub(crate) fn hex_u64(s: &str) -> Option<u64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    u64::from_str_radix(s, 16).ok().filter(|_| canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    /// A whole container in memory, built in one piece from the layout
    /// in the module doc: the bytes `write_snapshot_atomic` must put on
    /// disk.
    fn encode(kind: &str, version: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.push(u8::try_from(kind.len()).unwrap());
        out.extend_from_slice(kind.as_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&word_sum64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// The same container as the previous version writes it.
    fn encode_v1(kind: &str, version: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = encode(kind, version, payload);
        bytes[..8].copy_from_slice(SNAPSHOT_MAGIC_V1);
        let sum = FIXED_PREFIX + kind.len() + 4 + 8;
        bytes[sum..sum + 8].copy_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes
    }

    /// A test's own directory under the temp dir, removed when dropped.
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn new() -> Self {
            static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("vod-snap-test-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn join(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Temp-file siblings of `path` still on disk.
    fn tmp_debris(path: &Path) -> Vec<std::ffi::OsString> {
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| {
                let n = n.to_string_lossy();
                n.starts_with(&stem) && n.contains(".tmp")
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let dir = TmpDir::new();
        let path = dir.join("rt.snap");
        write_snapshot_atomic(&path, "test-kind", 3, b"hello payload").unwrap();
        let back = read_snapshot(&path, "test-kind", 3).unwrap();
        assert_eq!(back, b"hello payload");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            encode("test-kind", 3, b"hello payload"),
            "header then payload"
        );
        assert!(tmp_debris(&path).is_empty(), "temp file left behind");
    }

    #[test]
    fn concurrent_writers_of_one_path_never_collide() {
        let dir = TmpDir::new();
        let path = dir.join("contended.snap");
        let payload = |t: usize, i: usize| format!("writer {t} round {i}").into_bytes();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..50 {
                        write_snapshot_atomic(path, "test-kind", 3, &payload(t, i))
                            .unwrap_or_else(|e| panic!("writer {t} round {i}: {e}"));
                    }
                });
            }
        });
        // Whichever rename landed last survives whole.
        let back = read_snapshot(&path, "test-kind", 3).unwrap();
        assert!(
            (0..8).any(|t| (0..50).any(|i| back == payload(t, i))),
            "survivor is no writer's payload: {:?}",
            String::from_utf8_lossy(&back)
        );
        assert!(tmp_debris(&path).is_empty(), "temp files left behind");
    }

    #[test]
    fn empty_payload_round_trips() {
        let dir = TmpDir::new();
        let path = dir.join("empty.snap");
        write_snapshot_atomic(&path, "k", 1, b"").unwrap();
        assert_eq!(read_snapshot(&path, "k", 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncation_is_typed() {
        let full = encode("k", 1, b"some payload bytes");
        for cut in 0..full.len() {
            let err = decode(&full[..cut], "k", 1).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn corruption_is_typed() {
        let mut bytes = encode("k", 1, b"payload under test");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit
        let err = decode(&bytes, "k", 1).expect_err("corrupt payload must fail");
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn kind_and_version_mismatches() {
        let bytes = encode("alpha", 2, b"x");
        assert!(matches!(
            decode(&bytes, "beta", 2),
            Err(SnapshotError::KindMismatch { .. })
        ));
        assert!(matches!(
            decode(&bytes, "alpha", 3),
            Err(SnapshotError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut bytes = encode("k", 1, b"p");
        bytes.push(0);
        assert!(matches!(
            decode(&bytes, "k", 1),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn missing_file_is_io() {
        let err = read_snapshot(Path::new("/nonexistent/definitely/not.snap"), "k", 1)
            .expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io { .. }));
    }

    #[test]
    fn json_payload_round_trips() {
        let dir = TmpDir::new();
        let path = dir.join("doc.snap");
        let doc = (std::f64::consts::PI, u64::MAX - 1).enc();
        write_json_snapshot(&path, "doc", 1, &doc).unwrap();
        let back = read_json_snapshot(&path, "doc", 1).unwrap();
        let (a, b) = <(f64, u64)>::dec(&back).unwrap();
        assert_eq!(a.to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(b, u64::MAX - 1);
    }

    #[test]
    fn bit_exact_float_encoding_covers_specials() {
        for x in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-308,
        ] {
            let back = f64::from_text(x.compact().as_bytes()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bad_hex_is_malformed() {
        for v in [
            Value::Str("zz".to_string()),
            Value::Str("0123".to_string()),
            // `from_str_radix` would take these two: 15 and 255.
            Value::Str("+00000000000000f".to_string()),
            Value::Str("00000000000000FF".to_string()),
            Value::Num(1.0),
            Value::Null,
        ] {
            assert!(f64::dec(&v).is_err());
            assert!(u64::dec(&v).is_err());
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_v2_payload_is_a_checksum_mismatch() {
        // Four whole words and a 5-byte tail.
        let payload = b"{\"seed\":\"123456789abcdef0\",\"cycle\":6}";
        let clean = encode("k", 1, payload);
        let body = clean.len() - payload.len();
        for at in body..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[at] ^= 1 << bit;
                assert!(
                    matches!(
                        decode(&bytes, "k", 1),
                        Err(SnapshotError::ChecksumMismatch { .. })
                    ),
                    "flip of bit {bit} at byte {at} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn a_v1_container_is_read_and_checked_with_fnv() {
        let payload = b"payload of the previous version";
        let v1 = encode_v1("k", 1, payload);
        assert_eq!(v1.len(), encode("k", 1, payload).len(), "one header layout");
        assert_eq!(decode(&v1, "k", 1).unwrap(), payload);
        let mut rotted = v1.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x40;
        assert!(matches!(
            decode(&rotted, "k", 1),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // One checksum per version: a v1 magic over a v2 sum, or the
        // other way round, is damage.
        let mut crossed = encode("k", 1, payload);
        crossed[..8].copy_from_slice(SNAPSHOT_MAGIC_V1);
        assert!(matches!(
            decode(&crossed, "k", 1),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let mut crossed = v1;
        crossed[..8].copy_from_slice(SNAPSHOT_MAGIC);
        assert!(matches!(
            decode(&crossed, "k", 1),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn any_other_magic_is_bad_magic() {
        for magic in [b"VODSNAP0", b"VODSNAP3", b"vodsnap2", b"NOTSNAP!"] {
            let mut bytes = encode("k", 1, b"payload");
            bytes[..8].copy_from_slice(magic);
            assert!(matches!(
                decode(&bytes, "k", 1),
                Err(SnapshotError::BadMagic)
            ));
        }
    }

    proptest::proptest! {
        #[test]
        fn the_word_sum_folded_in_pieces_is_the_one_shot_sum(
            payload in proptest::collection::vec(0u8..=255, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(payload.len())).collect();
            cuts.push(payload.len());
            cuts.sort_unstable();
            let mut sum = WordSum::default();
            let mut at = 0;
            for cut in cuts {
                sum.update(&payload[at..cut]);
                at = cut;
            }
            proptest::prop_assert_eq!(sum.finish(), word_sum64(&payload));
        }
    }

    /// Write `value` the way the service's state dir does and check the
    /// file against the container built in one piece from its compact
    /// text.
    fn assert_streamed(path: &Path, value: &impl Wire, what: &str) {
        FaultHandle::default()
            .write_wire_snapshot(path, "k", 1, value)
            .unwrap();
        let bytes = std::fs::read(path).unwrap();
        let text = value.compact();
        assert!(bytes == encode("k", 1, text.as_bytes()), "{what}");
        assert_eq!(decode(&bytes, "k", 1).unwrap(), text.as_bytes(), "{what}");
    }

    #[test]
    fn streamed_snapshots_are_the_container_built_in_one_piece() {
        let dir = TmpDir::new();
        let path = dir.join("streamed.snap");
        let lens = (0..=24)
            .chain(SPILL_AT - 12..=SPILL_AT + 12)
            .chain([3 * SPILL_AT + 5]);
        for len in lens {
            let raw: Vec<u8> = (0..len)
                .map(|i| u8::try_from(i * 131 % 251).unwrap())
                .collect();
            write_snapshot_atomic(&path, "k", 1, &raw).unwrap();
            assert!(
                std::fs::read(&path).unwrap() == encode("k", 1, &raw),
                "{len} raw bytes"
            );
            // One string event of `len + 2` bytes, drained whole ...
            assert_streamed(&path, &"x".repeat(len), &format!("a {len}-byte string"));
            // ... and strings of 0 to 12 bytes, so drains end anywhere in
            // a word.
            let pieces: Vec<String> = (0..len / 7).map(|i| "y".repeat(i % 13)).collect();
            assert_streamed(&path, &pieces, &format!("{} short strings", pieces.len()));
        }
        assert!(tmp_debris(&path).is_empty(), "temp file left behind");
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
