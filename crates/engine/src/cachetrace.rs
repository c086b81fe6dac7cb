//! Cache access-trace recording (`TRC1` format).
//!
//! A trace is the compact, replayable record of every [`crate::cache::
//! SynthCache`] operation: lookups (with their hit/miss outcome),
//! insertions, and warm-start loads. `trasyn-cachesim` replays a trace
//! against a sweep of capacities to size the cache from data instead of
//! folklore — and the replay-parity tests pin that a replay under the
//! *recorded* configuration reproduces the live hit/miss sequence
//! exactly.
//!
//! # What is recorded
//!
//! One [`TraceEvent`] per cache operation, appended under the shard
//! lock (so per-shard event order is exactly the live decision order):
//!
//! * `key_hash` — the key's stable FNV-1a 64 digest
//!   ([`crate::cache::CacheKey::digest`]); the same digest picks the
//!   shard (`digest % shards`), so a replay reconstructs shard
//!   assignment without the full key. Digest collisions would alias two
//!   keys; at 64 bits and realistic trace sizes this is negligible.
//! * `kind` — get-hit, get-miss, insert, or warm-start load.
//! * `size_class` — `ceil(log2)` bucket of the cached gate-sequence
//!   length (0 for lookups, which carry no value).
//! * `t_us` — microseconds since the recorder started (telemetry only;
//!   replay is order-driven, never clock-driven).
//!
//! # On-disk format (`TRC1`, version 1)
//!
//! Little-endian, same conventions as the `TSC1` cache snapshot
//! ([`crate::snapshot`]): magic, explicit version (mismatch is rejected,
//! never migrated), bounds-checked reads, an entry-count sanity bound,
//! and a trailing FNV-1a 64 checksum verified *before* parsing.
//!
//! ```text
//! magic    4 B   "TRC1"
//! version  4 B   u32 (this module: 1)
//! policy   1 B   always 0 (FIFO)
//! shards   4 B   u32 shard count
//! capacity 8 B   u64 total capacity (0 = unbounded)
//! count    8 B   u64 number of events
//! events   count × 18 B: key_hash u64, kind u8, size_class u8, t_us u64
//! checksum 8 B   FNV-1a 64 over every preceding byte
//! ```
//!
//! The policy byte names the recorded cache's eviction policy. FIFO (0)
//! is the only one; codes 1–3 (LRU, 2Q and a frequency sketch, recorded
//! by older builds) are reserved and rejected on read, because a replay
//! under FIFO could not reproduce their decisions.
//!
//! A truncated, bit-flipped, foreign, or future-versioned file is
//! rejected with a clean one-line [`TraceError`]; an empty trace (zero
//! events) is valid.

use crate::fnv::fnv1a64;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// File magic: "TRasyn Cache trace", version-independent.
pub const MAGIC: [u8; 4] = *b"TRC1";

/// Format version written by this module.
pub const VERSION: u32 = 1;

/// The header's policy byte: FIFO, the only eviction policy.
const FIFO_POLICY_CODE: u8 = 0;

/// Fixed header length in bytes (magic through count).
const HEADER_BYTES: usize = 4 + 4 + 1 + 4 + 8 + 8;

/// Fixed length of one encoded event.
const EVENT_BYTES: usize = 8 + 1 + 1 + 8;

/// Why a trace file was rejected.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying read/write failed.
    Io(String),
    /// The file does not start with [`MAGIC`] — not a trace file.
    BadMagic,
    /// The file is a trace, but from a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The file is structurally invalid (truncated, bit-flipped,
    /// trailing garbage, nonsensical counts…).
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a cache trace file (bad magic)"),
            TraceError::VersionMismatch { found, expected } => write!(
                f,
                "cache trace version {found} is not supported (this build reads {expected})"
            ),
            TraceError::Corrupt(what) => write!(f, "corrupt cache trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e.to_string())
    }
}

/// What happened at the cache, per event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A lookup that found the key resident.
    Hit,
    /// A lookup that found nothing.
    Miss,
    /// An insertion (deduplicated re-inserts are recorded too — they
    /// are no-ops on both the live cache and a parity replay).
    Insert,
    /// A warm-start load ([`crate::cache::SynthCache::load_entry`]):
    /// affects residency, bypasses the hit/miss/insert counters.
    Load,
}

impl EventKind {
    fn code(self) -> u8 {
        match self {
            EventKind::Hit => 0,
            EventKind::Miss => 1,
            EventKind::Insert => 2,
            EventKind::Load => 3,
        }
    }

    fn from_code(code: u8) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::Hit),
            1 => Some(EventKind::Miss),
            2 => Some(EventKind::Insert),
            3 => Some(EventKind::Load),
            _ => None,
        }
    }

    /// `true` for the lookup kinds (the events replay parity compares).
    pub fn is_get(self) -> bool {
        matches!(self, EventKind::Hit | EventKind::Miss)
    }
}

/// One recorded cache operation. See the module docs for field
/// semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stable 64-bit key digest (shard = `key_hash % shards`).
    pub key_hash: u64,
    /// What happened.
    pub kind: EventKind,
    /// `ceil(log2)` bucket of the cached gate count (0 for lookups).
    pub size_class: u8,
    /// Microseconds since the recorder started.
    pub t_us: u64,
}

/// A decoded trace: the recorded cache's configuration plus the event
/// log in live order.
#[derive(Clone, Debug)]
pub struct CacheTrace {
    /// Shard count of the recorded cache.
    pub shards: u32,
    /// Total capacity of the recorded cache (0 = unbounded).
    pub capacity: u64,
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl CacheTrace {
    /// Number of lookup events (hits + misses).
    pub fn gets(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_get()).count()
    }
}

/// An in-memory event recorder, attached to a cache with
/// [`crate::cache::SynthCache::set_recorder`]. Events are appended under
/// the cache's shard lock, so within a shard the record order is the
/// live decision order; the recorder's own lock only serializes the
/// append.
pub struct TraceRecorder {
    shards: u32,
    capacity: u64,
    start: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// A recorder stamped with the recorded cache's configuration.
    pub fn new(shards: u32, capacity: u64) -> Self {
        TraceRecorder {
            shards,
            capacity,
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Appends one event (called by the cache, under its shard lock).
    pub fn record(&self, key_hash: u64, kind: EventKind, size_class: u8) {
        let t_us = self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.events
            .lock()
            .expect("trace recorder poisoned")
            .push(TraceEvent {
                key_hash,
                kind,
                size_class,
                t_us,
            });
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace recorder poisoned").len()
    }

    /// `true` when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the trace (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let events = self.events.lock().expect("trace recorder poisoned");
        let mut out = Vec::with_capacity(HEADER_BYTES + events.len() * EVENT_BYTES + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(FIFO_POLICY_CODE);
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.extend_from_slice(&self.capacity.to_le_bytes());
        out.extend_from_slice(&(events.len() as u64).to_le_bytes());
        for e in events.iter() {
            out.extend_from_slice(&e.key_hash.to_le_bytes());
            out.push(e.kind.code());
            out.push(e.size_class);
            out.extend_from_slice(&e.t_us.to_le_bytes());
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Atomically writes the trace to `path` (temp file + rename, like
    /// the snapshot saver) and returns the event count.
    pub fn save_to_file(&self, path: &Path) -> Result<usize, TraceError> {
        let bytes = self.encode();
        let count = (bytes.len() - HEADER_BYTES - 8) / EVENT_BYTES;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(count)
    }
}

/// Bounds-checked little-endian reader (same shape as the snapshot
/// decoder's).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(TraceError::Corrupt("unexpected end of file"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Decodes a serialized trace, verifying magic, checksum (before any
/// parsing), version, and exact length.
pub fn decode(bytes: &[u8]) -> Result<CacheTrace, TraceError> {
    // Smallest valid file: header + checksum (zero events).
    if bytes.len() < HEADER_BYTES + 8 {
        return Err(TraceError::Corrupt("file shorter than header"));
    }
    if bytes[..4] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a64(payload) != stored {
        return Err(TraceError::Corrupt("checksum mismatch"));
    }
    let mut r = Reader {
        bytes: payload,
        pos: 4,
    };
    let version = r.u32()?;
    if version != VERSION {
        return Err(TraceError::VersionMismatch {
            found: version,
            expected: VERSION,
        });
    }
    if r.u8()? != FIFO_POLICY_CODE {
        return Err(TraceError::Corrupt("unknown policy code"));
    }
    let shards = r.u32()?;
    if shards == 0 {
        return Err(TraceError::Corrupt("zero shard count"));
    }
    let capacity = r.u64()?;
    let count = r.u64()?;
    // Sanity bound: every event costs EVENT_BYTES, so a count larger
    // than the remaining payload could ever hold is corruption, not a
    // huge trace.
    let remaining = payload.len() - r.pos;
    if count > (remaining / EVENT_BYTES) as u64 {
        return Err(TraceError::Corrupt("event count exceeds file size"));
    }
    let mut events = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let key_hash = r.u64()?;
        let kind = EventKind::from_code(r.u8()?)
            .ok_or(TraceError::Corrupt("unknown event kind"))?;
        let size_class = r.u8()?;
        let t_us = r.u64()?;
        events.push(TraceEvent {
            key_hash,
            kind,
            size_class,
            t_us,
        });
    }
    if r.pos != payload.len() {
        return Err(TraceError::Corrupt("trailing bytes after events"));
    }
    Ok(CacheTrace {
        shards,
        capacity,
        events,
    })
}

/// Reads and decodes a trace file.
pub fn load_from_file(path: &Path) -> Result<CacheTrace, TraceError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with_events(n: u64) -> TraceRecorder {
        let rec = TraceRecorder::new(4, 256);
        for i in 0..n {
            let kind = match i % 4 {
                0 => EventKind::Miss,
                1 => EventKind::Insert,
                2 => EventKind::Hit,
                _ => EventKind::Load,
            };
            rec.record(i * 7 + 1, kind, (i % 9) as u8);
        }
        rec
    }

    #[test]
    fn roundtrip_is_exact() {
        let rec = recorder_with_events(13);
        let bytes = rec.encode();
        let trace = decode(&bytes).expect("roundtrip decodes");
        assert_eq!(trace.shards, 4);
        assert_eq!(trace.capacity, 256);
        assert_eq!(trace.events.len(), 13);
        assert_eq!(trace.events[0].key_hash, 1);
        assert_eq!(trace.events[0].kind, EventKind::Miss);
        assert_eq!(trace.events[2].kind, EventKind::Hit);
        assert_eq!(trace.events[1].size_class, 1);
        assert_eq!(trace.gets(), trace.events.iter().filter(|e| e.kind.is_get()).count());
    }

    #[test]
    fn timestamps_are_monotone() {
        let rec = recorder_with_events(50);
        let trace = decode(&rec.encode()).unwrap();
        for w in trace.events.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let rec = TraceRecorder::new(1, 0);
        assert!(rec.is_empty());
        let trace = decode(&rec.encode()).expect("empty trace is valid");
        assert!(trace.events.is_empty());
        assert_eq!(trace.capacity, 0);
        assert_eq!(trace.gets(), 0);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = recorder_with_events(5).encode();
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("truncated file accepted");
            assert!(
                matches!(err, TraceError::Corrupt(_) | TraceError::BadMagic),
                "length {len}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = recorder_with_events(5).encode();
        // Flip one bit in every byte position; every mutation must be
        // rejected (magic, checksum, or structural checks).
        for pos in 0..bytes.len() {
            let mut b = bytes.clone();
            b[pos] ^= 0x40;
            assert!(
                decode(&b).is_err(),
                "bit flip at byte {pos} was silently accepted"
            );
        }
    }

    #[test]
    fn version_mismatch_is_explicit() {
        let mut bytes = recorder_with_events(3).encode();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the checksum so only the version differs.
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        match decode(&bytes) {
            Err(TraceError::VersionMismatch { found: 99, expected: VERSION }) => {}
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn retired_policy_codes_are_rejected() {
        // Codes 1–3 are traces an older build recorded under LRU, 2Q or
        // freq; a FIFO replay cannot reproduce them.
        let policy_at = 8;
        let good = recorder_with_events(3).encode();
        assert_eq!(good[policy_at], 0, "the policy byte is always FIFO");
        for code in 1u8..=3 {
            let mut bytes = good.clone();
            bytes[policy_at] = code;
            // Re-seal the checksum so only the policy byte differs.
            let n = bytes.len();
            let sum = fnv1a64(&bytes[..n - 8]);
            bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
            let err = decode(&bytes).expect_err("retired policy code accepted");
            assert_eq!(err.to_string(), "corrupt cache trace: unknown policy code");
        }
    }

    #[test]
    fn foreign_files_are_rejected() {
        assert!(matches!(decode(b"PNG\x0d & very long tail of not-a-trace bytes.."), Err(TraceError::BadMagic)));
        assert!(matches!(decode(b""), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn oversized_count_is_corrupt_not_oom() {
        let mut bytes = recorder_with_events(2).encode();
        let count_at = HEADER_BYTES - 8;
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        match decode(&bytes) {
            Err(TraceError::Corrupt(msg)) => assert!(msg.contains("count")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_as_one_line() {
        for e in [
            TraceError::Io("disk on fire".into()),
            TraceError::BadMagic,
            TraceError::VersionMismatch { found: 9, expected: 1 },
            TraceError::Corrupt("checksum mismatch"),
        ] {
            let line = e.to_string();
            assert!(!line.is_empty() && !line.contains('\n'), "{line:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "trasyn-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.trc");
        let rec = recorder_with_events(7);
        let n = rec.save_to_file(&path).expect("save succeeds");
        assert_eq!(n, 7);
        let trace = load_from_file(&path).expect("load succeeds");
        assert_eq!(trace.events.len(), 7);
        assert!(matches!(
            load_from_file(&dir.join("missing.trc")),
            Err(TraceError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
