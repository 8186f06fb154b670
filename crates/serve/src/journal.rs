//! The serve write-ahead journal: a checksummed, segmented log of every
//! admitted mutating request, so a warm restart is *dump + replay of the
//! journal tail since the dump's sequence watermark* and converges to
//! the exact state an uninterrupted run would have reached.
//!
//! # On-disk format
//!
//! A journal is a directory of segment files named
//! `wal-<first_seq, 20 digits>.log`. Each segment starts with a 32-byte
//! header and then holds length-framed records:
//!
//! ```text
//! header:  magic "MNEMOWAL" (8) | version u64 LE | first_seq u64 LE
//!          | fnv64(first 24 bytes) u64 LE
//! record:  payload_len u32 LE | seq u64 LE | payload bytes
//!          | fnv64(seq LE bytes ++ payload) u64 LE
//! ```
//!
//! Sequence numbers are monotonic across segments (record `seq` must be
//! exactly the previous record's plus one, and a segment's first record
//! carries the header's `first_seq`). Segments rotate by size; rotation
//! points are hard synchronisation barriers — the finished segment and
//! the directory are fsynced before the next header is written.
//!
//! Version 2 adds one thing to the bytes on disk: the live segment may
//! end in zeros after its last record (the *runway*, below). Version 1
//! segments are read as before.
//!
//! # Writes
//!
//! [`JournalWriter::append`] only encodes the record into a pending
//! buffer. The buffer reaches the OS in one positioned write at the
//! segment's record end at every sync point and rotation, on
//! [`JournalWriter::flush`], and when the writer is dropped. Where the
//! records go and when they are fsynced does not depend on this: record
//! bytes, rotation points and fsyncs are those of a writer that wrote
//! each record as it was appended.
//!
//! The rule that keeps this safe is *flush before a visible effect*:
//! the socket loop flushes before any reply or follower row leaves the
//! process, and at the end of every poll. A SIGKILL therefore loses at
//! most records whose effects no client has seen. Power loss is bounded
//! by the fsync cadence, as before.
//!
//! A flush that would write past the zero-filled end of the live
//! segment also appends, in the same write, a runway of zeros (64 KiB,
//! never growing the segment past `segment_bytes` or its records). Group
//! commits then overwrite blocks that already exist, so the file size
//! changes once per runway instead of once per commit, and most
//! `fdatasync`s flush data without the size metadata. Only the live
//! segment ends in zeros: rotation trims the finished segment to its
//! last record before its barrier sync, and [`JournalWriter::close`]
//! trims on clean shutdown. Dropping the writer only flushes, so a
//! killed daemon leaves its runway for recovery.
//!
//! # Recovery
//!
//! [`recover`] scans the segments in order and is *total*: it never
//! panics and never refuses to produce an engine-startable result.
//!
//! * A torn tail — an incomplete record at the end of the **last**
//!   segment — is physically truncated at the last valid frame and
//!   counted (`serve.journal.truncated`).
//! * In a version 2 segment, a remainder of nothing but zeros is a
//!   clean end: the unused part of a runway. In the last segment
//!   recovery trims it off; it is not counted.
//! * In the last version 2 segment, an invalid record (bad checksum or
//!   sequence jump) whose claimed extent is followed by at least one
//!   byte, all zero to the end of the file, is a torn tail too: a
//!   group commit that reached only part of its runway blocks.
//! * A corrupt record anywhere else (bad checksum, sequence jump,
//!   absurd length, a mid-journal short write, a complete bad record at
//!   the very end of a runway-free last segment) quarantines the
//!   segment: the file is renamed `*.quarantined`, a frame-numbered
//!   [`ServeError::Corrupt`] report is attached, the counter
//!   (`serve.journal.quarantined`) moves, and recovery continues with
//!   the next segment in `degraded` mode.
//! * After a quarantine the replay chain is broken; a later segment
//!   re-anchors it only if its `first_seq` proves no needed record was
//!   lost in the gap (everything skipped is at or below the already-
//!   applied watermark). Unreachable segments are quarantined too, so a
//!   later recovery never replays records out of order.
//!
//! The storage fault kinds in [`mnemo_faults`] (`torn_write`,
//! `bit_flip`, `fsync_fail`, `dump_corrupt`) drive the deterministic
//! chaos harness in [`crate::chaos`]; the writer itself consults only
//! `fsync_fail` (a simulated sync failure holds the durable watermark
//! back without erroring the daemon).

use crate::proto::{ServeError, MAX_FRAME_BYTES};
use mnemo_codec::{fnv64, fnv64_chain};
use mnemo_faults::StorageFaults;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

/// Segment magic, fixed for all versions.
pub const JOURNAL_MAGIC: &[u8; 8] = b"MNEMOWAL";

/// Segment format version this build writes and the newest it reads.
/// Version 2 segments may end in a zero runway; version 1 never does.
pub const JOURNAL_VERSION: u64 = 2;

/// Segment header size in bytes.
pub const HEADER_BYTES: usize = 32;

/// Per-record framing overhead (length + sequence + checksum).
pub const RECORD_OVERHEAD: usize = 4 + 8 + 8;

/// Records larger than this are rejected at append time and treated as
/// corruption at recovery time (a flipped length byte must not allocate
/// gigabytes). Shared with the socket framing limit.
pub const MAX_RECORD_BYTES: usize = MAX_FRAME_BYTES;

/// Zeros a flush appends past the live segment's records when it would
/// otherwise grow the file (see the module docs). Larger runways
/// (256 KiB, 1 MiB) measured no faster.
const RUNWAY: u64 = 64 * 1024;

fn io_err(context: &str, path: &Path, e: std::io::Error) -> ServeError {
    ServeError::Io(format!("{context} '{}': {e}", path.display()))
}

/// Journal sizing and sync policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Rotate to a new segment once the current one would exceed this
    /// many bytes (a segment always holds at least one record).
    pub segment_bytes: u64,
    /// fsync after every N appended records (1 = every record). Dumps
    /// and rotations sync unconditionally regardless of this cadence.
    pub sync_every: u64,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            segment_bytes: 64 * 1024,
            sync_every: 1,
        }
    }
}

impl JournalConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.segment_bytes < (HEADER_BYTES + RECORD_OVERHEAD) as u64 {
            return Err(ServeError::Usage(format!(
                "journal segment_bytes must be >= {}, got {}",
                HEADER_BYTES + RECORD_OVERHEAD,
                self.segment_bytes
            )));
        }
        if self.sync_every == 0 {
            return Err(ServeError::Usage("journal sync_every must be >= 1".into()));
        }
        Ok(())
    }
}

/// Writer-side counters, exported by the front ends as
/// `serve.journal.{appended,fsync_failed,rotations}`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended.
    pub appended: u64,
    /// Per-record fsyncs the fault plan failed (the durable watermark
    /// did not advance).
    pub fsync_failed: u64,
    /// Segment rotations performed.
    pub rotations: u64,
}

/// The name of the segment whose first record is `first_seq`.
pub fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// Encode one record frame onto the end of `out`.
pub fn encode_record(seq: u64, payload: &str, out: &mut Vec<u8>) {
    let p = payload.as_bytes();
    out.reserve(RECORD_OVERHEAD + p.len());
    out.extend_from_slice(&(p.len() as u32).to_le_bytes());
    let seq_le = seq.to_le_bytes();
    out.extend_from_slice(&seq_le);
    out.extend_from_slice(p);
    let check = fnv64_chain(fnv64(&seq_le), p);
    out.extend_from_slice(&check.to_le_bytes());
}

fn encode_header(first_seq: u64) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[..8].copy_from_slice(JOURNAL_MAGIC);
    out[8..16].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out[16..24].copy_from_slice(&first_seq.to_le_bytes());
    let check = fnv64(&out[..24]);
    out[24..32].copy_from_slice(&check.to_le_bytes());
    out
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(le)
}

/// Header parse outcome: `Ok { first_seq, version }`, or why not.
enum HeaderCheck {
    Ok {
        first_seq: u64,
        version: u64,
    },
    /// Too few bytes for a header — can only be a torn rotation point.
    Torn,
    /// Structurally complete but invalid.
    Corrupt(String),
}

fn decode_header(bytes: &[u8]) -> HeaderCheck {
    if bytes.len() < HEADER_BYTES {
        return HeaderCheck::Torn;
    }
    if &bytes[..8] != JOURNAL_MAGIC {
        return HeaderCheck::Corrupt("bad segment magic".into());
    }
    let check = u64_at(bytes, 24);
    if check != fnv64(&bytes[..24]) {
        return HeaderCheck::Corrupt("segment header checksum mismatch".into());
    }
    let version = u64_at(bytes, 8);
    if version > JOURNAL_VERSION {
        return HeaderCheck::Corrupt(format!(
            "segment version {version} too new (this build speaks <= {JOURNAL_VERSION})"
        ));
    }
    HeaderCheck::Ok {
        first_seq: u64_at(bytes, 16),
        version,
    }
}

/// One record decode step at byte offset `at`.
enum Decoded {
    /// A valid record; `next` is the offset after it.
    Record { payload: String, next: usize },
    /// Clean end of segment.
    End,
    /// The bytes stop mid-record — a torn write, if this is the tail.
    Torn(String),
    /// A structurally complete but invalid record. `extent_end` is
    /// where the extent its length claims ends, when the record could
    /// be a tear: a torn write keeps a prefix of the record and leaves
    /// zeros after it, so its checksum or sequence fails but its length
    /// reads at most the real one. An absurd length or a checksummed
    /// non-UTF-8 payload cannot come from a tear (`None`).
    Corrupt {
        reason: String,
        extent_end: Option<usize>,
    },
}

impl Decoded {
    fn corrupt(reason: String) -> Decoded {
        Decoded::Corrupt {
            reason,
            extent_end: None,
        }
    }
}

fn decode_at(bytes: &[u8], at: usize, expect_seq: u64) -> Decoded {
    let remaining = bytes.len() - at;
    if remaining == 0 {
        return Decoded::End;
    }
    if remaining < RECORD_OVERHEAD {
        return Decoded::Torn(format!(
            "{remaining} trailing bytes, record needs >= {RECORD_OVERHEAD}"
        ));
    }
    let mut len_le = [0u8; 4];
    len_le.copy_from_slice(&bytes[at..at + 4]);
    let len = u32::from_le_bytes(len_le) as usize;
    if len > MAX_RECORD_BYTES {
        return Decoded::corrupt(format!("record length {len} exceeds {MAX_RECORD_BYTES}"));
    }
    let total = RECORD_OVERHEAD + len;
    if remaining < total {
        return Decoded::Torn(format!("record promises {total} bytes, {remaining} remain"));
    }
    let seq = u64_at(bytes, at + 4);
    let payload = &bytes[at + 12..at + 12 + len];
    let check = u64_at(bytes, at + 12 + len);
    let want = fnv64_chain(fnv64(&seq.to_le_bytes()), payload);
    let maybe_torn = |reason: String| Decoded::Corrupt {
        reason,
        extent_end: Some(at + total),
    };
    if check != want {
        return maybe_torn("record checksum mismatch".into());
    }
    if seq != expect_seq {
        return maybe_torn(format!("sequence jump: expected {expect_seq}, found {seq}"));
    }
    match std::str::from_utf8(payload) {
        Ok(text) => Decoded::Record {
            payload: text.to_string(),
            next: at + total,
        },
        Err(_) => Decoded::corrupt("record payload is not UTF-8".into()),
    }
}

/// Live (non-quarantined) segments in replay order, keyed by the
/// sequence number embedded in the file name (ordering only — the
/// header is authoritative).
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, ServeError> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("cannot list journal", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("cannot list journal", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|n| n.strip_suffix(".log"))
        else {
            continue;
        };
        let Ok(seq) = stem.parse::<u64>() else {
            continue;
        };
        segments.push((seq, entry.path()));
    }
    segments.sort();
    Ok(segments.into_iter().map(|(_, p)| p).collect())
}

fn quarantine(path: &Path) -> Result<PathBuf, ServeError> {
    let base = format!("{}.quarantined", path.display());
    let mut target = PathBuf::from(&base);
    let mut n = 1u32;
    while target.exists() {
        target = PathBuf::from(format!("{base}.{n}"));
        n += 1;
    }
    std::fs::rename(path, &target).map_err(|e| io_err("cannot quarantine", path, e))?;
    Ok(target)
}

fn corrupt_report(path: &Path, record: usize, reason: String) -> ServeError {
    ServeError::Corrupt {
        path: path.display().to_string(),
        line: record,
        reason,
    }
}

/// What [`recover`] found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Contiguous `(seq, payload)` records with `seq > from_seq`, in
    /// order — the journal tail to replay through the engine.
    pub frames: Vec<(u64, String)>,
    /// The highest applied-or-replayable sequence number: the resumed
    /// writer starts at `last_seq + 1`, and an at-least-once client
    /// resends everything after it.
    pub last_seq: u64,
    /// Torn tail records dropped (and physically truncated).
    pub truncated: u64,
    /// Segments quarantined (renamed `*.quarantined`).
    pub quarantined: u64,
    /// One record-numbered report per quarantined segment.
    pub reports: Vec<ServeError>,
}

/// Scan `dir` and reconstruct the longest contiguous record chain after
/// `from_seq` (the state dump's watermark). Total: every way the bytes
/// can be wrong maps to truncation or quarantine, never an `Err` —
/// `Err` is reserved for live I/O failures (unreadable directory).
pub fn recover(dir: &Path, from_seq: u64) -> Result<Recovery, ServeError> {
    let mut out = Recovery {
        last_seq: from_seq,
        ..Recovery::default()
    };
    if !dir.exists() {
        return Ok(out);
    }
    let segments = list_segments(dir)?;
    let last_index = segments.len().saturating_sub(1);
    for (index, path) in segments.iter().enumerate() {
        let is_tail = index == last_index;
        let bytes = std::fs::read(path).map_err(|e| io_err("cannot read segment", path, e))?;
        let (first_seq, version) = match decode_header(&bytes) {
            HeaderCheck::Ok { first_seq, version } => (first_seq, version),
            HeaderCheck::Torn if is_tail => {
                // A rotation died before the new header landed; the
                // segment never held a record.
                out.truncated += 1;
                std::fs::remove_file(path)
                    .map_err(|e| io_err("cannot drop torn segment", path, e))?;
                continue;
            }
            HeaderCheck::Torn => {
                out.quarantined += 1;
                out.reports.push(corrupt_report(
                    path,
                    0,
                    "short segment header mid-journal".into(),
                ));
                quarantine(path)?;
                continue;
            }
            HeaderCheck::Corrupt(reason) => {
                out.quarantined += 1;
                out.reports.push(corrupt_report(path, 0, reason));
                quarantine(path)?;
                continue;
            }
        };
        if first_seq > out.last_seq + 1 {
            // Records between the chain head and this segment were lost
            // in a quarantined predecessor; replaying from here would
            // apply records out of order.
            out.quarantined += 1;
            out.reports.push(corrupt_report(
                path,
                0,
                format!(
                    "unreachable segment: first record {first_seq} but chain ends at {}",
                    out.last_seq
                ),
            ));
            quarantine(path)?;
            continue;
        }
        // Only a version 2 segment may end in a runway of zeros.
        let runway = version >= 2;
        let zero_to_eof = |from: usize| from < bytes.len() && bytes[from..].iter().all(|&b| b == 0);
        let mut expect = first_seq;
        let mut at = HEADER_BYTES;
        let mut record = 0usize;
        loop {
            match decode_at(&bytes, at, expect) {
                Decoded::End => break,
                Decoded::Record { payload, next } => {
                    record += 1;
                    if expect > out.last_seq {
                        out.frames.push((expect, payload));
                        out.last_seq = expect;
                    }
                    expect += 1;
                    at = next;
                }
                // The unused part of a runway: a clean end.
                _ if runway && zero_to_eof(at) => {
                    if is_tail {
                        truncate(path, at)?;
                    }
                    break;
                }
                Decoded::Corrupt {
                    extent_end: Some(end),
                    ..
                } if runway && is_tail && zero_to_eof(end) => {
                    // A group commit that reached only part of its
                    // runway blocks.
                    out.truncated += 1;
                    truncate(path, at)?;
                    break;
                }
                Decoded::Torn(_) if is_tail => {
                    out.truncated += 1;
                    truncate(path, at)?;
                    break;
                }
                Decoded::Torn(reason) | Decoded::Corrupt { reason, .. } => {
                    out.quarantined += 1;
                    out.reports.push(corrupt_report(path, record + 1, reason));
                    quarantine(path)?;
                    break;
                }
            }
        }
    }
    Ok(out)
}

/// Cut the segment at `path` to its first `len` bytes.
fn truncate(path: &Path, len: usize) -> Result<(), ServeError> {
    OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|file| file.set_len(len as u64))
        .map_err(|e| io_err("cannot truncate segment", path, e))
}

/// Create the segment whose first record is `first_seq`: write and sync
/// its header, then sync the directory so the file itself is durable.
fn create_segment(dir: &Path, first_seq: u64) -> Result<(File, PathBuf), ServeError> {
    let path = dir.join(segment_name(first_seq));
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| io_err("cannot create segment", &path, e))?;
    file.write_all_at(&encode_header(first_seq), 0)
        .map_err(|e| io_err("cannot write segment header", &path, e))?;
    file.sync_data()
        .map_err(|e| io_err("cannot sync segment", &path, e))?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("cannot sync journal dir", dir, e))?;
    Ok((file, path))
}

/// The append side of the journal. One writer owns the directory at a
/// time; it always starts a fresh segment at `first_seq` (recovery has
/// already truncated or quarantined anything that conflicts).
///
/// Appends encode into one reused pending buffer; see the module docs
/// for when it reaches the OS and for the zero runway ahead of it.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    config: JournalConfig,
    file: File,
    seg_path: PathBuf,
    /// The segment's record end, pending records included.
    seg_bytes: u64,
    /// The length of `file`: its written records, then zeros up to here.
    file_bytes: u64,
    next_seq: u64,
    synced_seq: u64,
    synced_bytes: u64,
    faults: Option<StorageFaults>,
    stats: JournalStats,
    /// Encoded records not yet written to `file`; `seg_bytes` counts
    /// them.
    pending: Vec<u8>,
}

impl JournalWriter {
    /// Open the journal for appending: create `dir` if needed and start
    /// a new segment whose first record will be `first_seq`. `faults`
    /// (if any) drives simulated `fsync_fail` windows.
    pub fn open(
        dir: &Path,
        config: JournalConfig,
        first_seq: u64,
        faults: Option<StorageFaults>,
    ) -> Result<JournalWriter, ServeError> {
        config.validate()?;
        if first_seq == 0 {
            return Err(ServeError::Usage("journal sequences start at 1".into()));
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err("cannot create journal", dir, e))?;
        let (file, seg_path) = create_segment(dir, first_seq)?;
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            config,
            file,
            seg_path,
            seg_bytes: HEADER_BYTES as u64,
            file_bytes: HEADER_BYTES as u64,
            next_seq: first_seq,
            synced_seq: first_seq - 1,
            synced_bytes: HEADER_BYTES as u64,
            faults: faults.filter(|f| !f.is_empty()),
            stats: JournalStats::default(),
            pending: Vec::new(),
        })
    }

    /// Append one record at virtual time `now_ns`, rotating and syncing
    /// per policy. Returns the record's sequence number.
    pub fn append(&mut self, now_ns: u128, payload: &str) -> Result<u64, ServeError> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(ServeError::Usage(format!(
                "journal record of {} bytes exceeds {MAX_RECORD_BYTES}",
                payload.len()
            )));
        }
        let record_bytes = (RECORD_OVERHEAD + payload.len()) as u64;
        if self.seg_bytes > HEADER_BYTES as u64
            && self.seg_bytes + record_bytes > self.config.segment_bytes
        {
            self.rotate()?;
        }
        encode_record(self.next_seq, payload, &mut self.pending);
        self.seg_bytes += record_bytes;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.appended += 1;
        if self.next_seq - 1 - self.synced_seq >= self.config.sync_every {
            self.sync(now_ns)?;
        }
        Ok(seq)
    }

    /// Rotation: trim and hard-sync the finished segment (fault-exempt —
    /// rotation points are durability barriers) and open the next one.
    fn rotate(&mut self) -> Result<(), ServeError> {
        self.write_pending(false)?;
        self.trim()?;
        self.file
            .sync_data()
            .map_err(|e| io_err("cannot sync segment", &self.seg_path, e))?;
        self.synced_seq = self.next_seq - 1;
        self.stats.rotations += 1;
        let (file, path) = create_segment(&self.dir, self.next_seq)?;
        self.file = file;
        self.seg_path = path;
        self.seg_bytes = HEADER_BYTES as u64;
        self.file_bytes = HEADER_BYTES as u64;
        self.synced_bytes = HEADER_BYTES as u64;
        Ok(())
    }

    /// Write and fsync pending records. Inside a simulated `fsync_fail`
    /// window the records are written but the sync is skipped and
    /// counted, the durable watermark holds, and the daemon carries on —
    /// returns whether the tail is durable.
    pub fn sync(&mut self, now_ns: u128) -> Result<bool, ServeError> {
        if self.synced_seq + 1 == self.next_seq {
            return Ok(true);
        }
        self.flush()?;
        if self.faults.as_ref().is_some_and(|f| f.fsync_fails(now_ns)) {
            self.stats.fsync_failed += 1;
            return Ok(false);
        }
        self.file
            .sync_data()
            .map_err(|e| io_err("cannot sync segment", &self.seg_path, e))?;
        self.synced_seq = self.next_seq - 1;
        self.synced_bytes = self.seg_bytes;
        Ok(true)
    }

    /// Hand every pending record to the OS in one write. This makes
    /// them survive a process kill, not a power cut: only [`sync`]
    /// advances the durable watermark.
    ///
    /// [`sync`]: JournalWriter::sync
    pub fn flush(&mut self) -> Result<(), ServeError> {
        self.write_pending(true)
    }

    /// Flush, then trim the runway so the segment ends at its last
    /// record. Call on clean shutdown; a writer that is only dropped
    /// leaves the runway for [`recover`] to trim.
    pub fn close(mut self) -> Result<(), ServeError> {
        self.write_pending(false)?;
        self.trim()
    }

    /// Write the pending records at the segment's record end. With
    /// `runway`, a write that would grow the file also carries zeros up
    /// to `RUNWAY` bytes past the records, capped at the larger of
    /// `segment_bytes` and the records' end.
    fn write_pending(&mut self, runway: bool) -> Result<(), ServeError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let at = self.seg_bytes - self.pending.len() as u64;
        let mut end = self.seg_bytes;
        if runway && end > self.file_bytes {
            end = (end + RUNWAY).min(self.config.segment_bytes.max(end));
            self.pending.resize((end - at) as usize, 0);
        }
        let written = self.file.write_all_at(&self.pending, at);
        self.pending.clear();
        written.map_err(|e| io_err("cannot append to segment", &self.seg_path, e))?;
        self.file_bytes = self.file_bytes.max(end);
        Ok(())
    }

    /// Cut the runway off the segment; pending records must be written.
    fn trim(&mut self) -> Result<(), ServeError> {
        if self.file_bytes > self.seg_bytes {
            self.file
                .set_len(self.seg_bytes)
                .map_err(|e| io_err("cannot trim segment", &self.seg_path, e))?;
            self.file_bytes = self.seg_bytes;
        }
        Ok(())
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next append will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The highest sequence number known durable.
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// The current segment and the byte offset of the durable prefix
    /// within it — everything past this offset is at risk in a
    /// `torn_write` power-loss window.
    pub fn sync_point(&self) -> (PathBuf, u64) {
        (self.seg_path.clone(), self.synced_bytes)
    }

    /// The byte offset where the current segment's records end, pending
    /// ones included; zeros of the runway may follow.
    pub fn record_end(&self) -> u64 {
        self.seg_bytes
    }

    /// Writer-side counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

impl Drop for JournalWriter {
    /// A writer dropped without [`JournalWriter::close`] still hands its
    /// pending records to the OS, but leaves any runway in place, as a
    /// killed process would; errors are ignored here.
    fn drop(&mut self) {
        let _ = self.write_pending(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemo_faults::{FaultEvent, FaultPlan};
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mnemo-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Append `payloads` as records 1.., sync, and close, so every
    /// segment ends at its last record.
    fn write_records(dir: &Path, config: JournalConfig, payloads: &[String]) -> JournalStats {
        let mut w = append_all(dir, config, payloads);
        w.sync(payloads.len() as u128).unwrap();
        let stats = w.stats();
        w.close().unwrap();
        stats
    }

    fn append_all(dir: &Path, config: JournalConfig, payloads: &[String]) -> JournalWriter {
        let mut w = JournalWriter::open(dir, config, 1, None).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(w.append(i as u128, p).unwrap(), i as u64 + 1);
        }
        w
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// A segment header of any `version`.
    fn header_with_version(version: u64, first_seq: u64) -> [u8; HEADER_BYTES] {
        let mut header = [0u8; HEADER_BYTES];
        header[..8].copy_from_slice(JOURNAL_MAGIC);
        header[8..16].copy_from_slice(&version.to_le_bytes());
        header[16..24].copy_from_slice(&first_seq.to_le_bytes());
        let check = fnv64(&header[..24]);
        header[24..32].copy_from_slice(&check.to_le_bytes());
        header
    }

    #[test]
    fn append_then_recover_round_trips() {
        let dir = tmp_dir("roundtrip");
        let payloads: Vec<String> = (0..40)
            .map(|i| {
                format!("{{\"v\":1,\"tenant\":\"a\",\"key\":{i},\"op\":\"read\",\"bytes\":64}}")
            })
            .collect();
        write_records(&dir, JournalConfig::default(), &payloads);
        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.last_seq, 40);
        assert_eq!(rec.truncated, 0);
        assert_eq!(rec.quarantined, 0);
        let got: Vec<String> = rec.frames.iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(got, payloads);
        // A watermark skips the prefix.
        let tail = recover(&dir, 25).unwrap();
        assert_eq!(tail.frames.len(), 15);
        assert_eq!(tail.frames[0].0, 26);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_produces_contiguous_segments() {
        let dir = tmp_dir("rotate");
        let payloads: Vec<String> = (0..60).map(|i| format!("payload-{i:04}")).collect();
        let config = JournalConfig {
            segment_bytes: 256,
            sync_every: 1,
        };
        let stats = write_records(&dir, config, &payloads);
        assert!(stats.rotations >= 3, "{stats:?}");
        assert!(list_segments(&dir).unwrap().len() >= 4);
        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.last_seq, 60);
        assert_eq!(rec.frames.len(), 60);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_writes_match_per_record_frames() {
        // The reference is what writing each record as it came leaves:
        // a new segment wherever the next frame would overflow, each
        // holding its header and the `encode_record` frames, and a sync
        // every `sync_every` records since the last sync or rotation.
        let dir = tmp_dir("group");
        let config = JournalConfig {
            segment_bytes: 700,
            sync_every: 5,
        };
        let payloads: Vec<String> = (0..97)
            .map(|i| format!("{}-{i}", "p".repeat(i * 7 % 61)))
            .collect();
        let mut w = JournalWriter::open(&dir, config, 1, None).unwrap();
        let mut want = vec![(segment_name(1), encode_header(1).to_vec())];
        let mut rotations = 0;
        let mut synced = 0;
        for (i, p) in payloads.iter().enumerate() {
            let seq = i as u64 + 1;
            let mut frame = Vec::new();
            encode_record(seq, p, &mut frame);
            let segment = &want[want.len() - 1].1;
            if segment.len() > HEADER_BYTES
                && (segment.len() + frame.len()) as u64 > config.segment_bytes
            {
                want.push((segment_name(seq), encode_header(seq).to_vec()));
                rotations += 1;
                synced = seq - 1;
            }
            want.last_mut().unwrap().1.extend_from_slice(&frame);
            if seq - synced >= config.sync_every {
                synced = seq;
            }
            assert_eq!(w.append(i as u128, p).unwrap(), seq);
            assert_eq!(w.synced_seq(), synced, "record {seq}");
            // Records reach the file only at sync points and rotations,
            // so the file holds its durable prefix, then zeros no
            // further than the larger of the segment size and its
            // records.
            let (path, synced_bytes) = w.sync_point();
            let synced_bytes = synced_bytes as usize;
            let bytes = std::fs::read(&path).unwrap();
            let reference = &want[want.len() - 1].1;
            assert_eq!(
                bytes[..synced_bytes],
                reference[..synced_bytes],
                "record {seq}"
            );
            assert!(
                bytes[synced_bytes..].iter().all(|&b| b == 0),
                "record {seq}"
            );
            let cap = config.segment_bytes.max(reference.len() as u64);
            assert!(
                bytes.len() as u64 <= cap,
                "record {seq}: {} bytes",
                bytes.len()
            );
        }
        assert!(rotations >= 5, "{rotations}");
        assert_eq!(
            w.stats(),
            JournalStats {
                appended: payloads.len() as u64,
                fsync_failed: 0,
                rotations,
            }
        );
        // Closing the writer hands the unsynced tail to the OS and trims
        // the runway, so every segment is exactly its records.
        w.close().unwrap();
        let got: Vec<(String, Vec<u8>)> = list_segments(&dir)
            .unwrap()
            .iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(p).unwrap())
            })
            .collect();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_at_every_byte_offset() {
        // The satellite property, exhaustively: cutting the journal
        // anywhere inside the last record must recover exactly the
        // records before it and count one truncation.
        let dir = tmp_dir("torn");
        let payloads: Vec<String> = (0..5).map(|i| format!("record-number-{i}")).collect();
        write_records(&dir, JournalConfig::default(), &payloads);
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let full = std::fs::read(&seg).unwrap();
        let last_len = RECORD_OVERHEAD + payloads[4].len();
        let keep = full.len() - last_len;
        for cut in keep..full.len() - 1 {
            std::fs::write(&seg, &full[..cut]).unwrap();
            let rec = recover(&dir, 0).unwrap();
            assert_eq!(rec.last_seq, 4, "cut at {cut}");
            assert_eq!(rec.frames.len(), 4, "cut at {cut}");
            // A cut exactly on the record boundary is a clean prefix,
            // not a torn tail; anything inside the record is torn.
            assert_eq!(rec.truncated, u64::from(cut > keep), "cut at {cut}");
            assert_eq!(rec.quarantined, 0, "cut at {cut}");
            // Recovery physically truncated the torn bytes.
            assert_eq!(std::fs::read(&seg).unwrap().len(), keep, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_segment_corruption_quarantines_and_reanchors() {
        let dir = tmp_dir("quarantine");
        let payloads: Vec<String> = (0..60).map(|i| format!("payload-{i:04}")).collect();
        let config = JournalConfig {
            segment_bytes: 256,
            sync_every: 1,
        };
        write_records(&dir, config, &payloads);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Flip one payload bit in the first segment.
        let target = &segments[0];
        let mut bytes = std::fs::read(target).unwrap();
        let at = HEADER_BYTES + 13;
        bytes[at] ^= 0x10;
        std::fs::write(target, &bytes).unwrap();
        // With a watermark past the damage, the chain re-anchors and the
        // tail still replays; the bad segment is quarantined, not fatal.
        let rec = recover(&dir, 30).unwrap();
        assert_eq!(rec.quarantined, 1, "{:?}", rec.reports);
        assert_eq!(rec.last_seq, 60);
        assert!(rec.frames.iter().all(|(s, _)| *s > 30));
        assert!(matches!(rec.reports[0], ServeError::Corrupt { line, .. } if line >= 1));
        assert!(
            list_segments(&dir).unwrap().len() == segments.len() - 1,
            "quarantined segment left the live set"
        );
        // With a cold watermark the gap is unreachable: everything after
        // the corruption quarantines too, and the chain ends at 0.
        let dir2 = tmp_dir("quarantine-cold");
        write_records(&dir2, config, &payloads);
        let segments2 = list_segments(&dir2).unwrap();
        let mut bytes = std::fs::read(&segments2[0]).unwrap();
        bytes[HEADER_BYTES + 13] ^= 0x10;
        std::fs::write(&segments2[0], &bytes).unwrap();
        let rec = recover(&dir2, 0).unwrap();
        assert_eq!(rec.quarantined as usize, segments2.len());
        assert_eq!(rec.last_seq, 0);
        assert!(rec.frames.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn version_too_new_is_quarantined_with_a_clear_reason() {
        let dir = tmp_dir("version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_name(1));
        std::fs::write(&path, header_with_version(99, 1)).unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.quarantined, 1);
        assert!(
            rec.reports[0].to_string().contains("too new"),
            "{}",
            rec.reports[0]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn syncs_inside_one_runway_keep_the_file_length() {
        let dir = tmp_dir("runway");
        let config = JournalConfig {
            segment_bytes: 1 << 20,
            sync_every: 1,
        };
        let mut w = JournalWriter::open(&dir, config, 1, None).unwrap();
        let path = w.sync_point().0;
        // No runway before the first flush.
        assert_eq!(file_len(&path), HEADER_BYTES as u64);
        let payload = "r".repeat(100);
        let record = (RECORD_OVERHEAD + payload.len()) as u64;
        w.append(0, &payload).unwrap();
        let first = HEADER_BYTES as u64 + record;
        assert_eq!(file_len(&path), first + RUNWAY);
        // Every sync whose records fit in the runway overwrites zeros.
        let fit = RUNWAY / record;
        for i in 1..=fit {
            w.append(u128::from(i), &payload).unwrap();
            assert_eq!(w.sync_point().1, first + i * record);
            assert_eq!(file_len(&path), first + RUNWAY, "sync {i}");
        }
        // The first sync past it lays the next runway.
        w.append(0, &payload).unwrap();
        let end = first + (fit + 1) * record;
        assert_eq!(file_len(&path), end + RUNWAY);
        w.close().unwrap();
        assert_eq!(file_len(&path), end);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dropped_writer_leaves_a_runway_recovery_trims() {
        // Dropping the writer is what a killed daemon does: the records
        // reach the file, the runway stays.
        let dir = tmp_dir("killed");
        let payloads: Vec<String> = (0..25).map(|i| format!("killed-{i}")).collect();
        let config = JournalConfig {
            segment_bytes: 4096,
            sync_every: 4,
        };
        let w = append_all(&dir, config, &payloads);
        let path = w.sync_point().0;
        drop(w);
        let end = HEADER_BYTES
            + payloads
                .iter()
                .map(|p| RECORD_OVERHEAD + p.len())
                .sum::<usize>();
        assert_eq!(file_len(&path), 4096);
        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.last_seq, 25);
        let got: Vec<String> = rec.frames.into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, payloads);
        assert_eq!((rec.truncated, rec.quarantined), (0, 0));
        assert_eq!(file_len(&path), end as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_record_inside_the_runway_truncates_at_every_byte_offset() {
        // A power cut during a group commit keeps the runway's length
        // but only part of the record: zeros from the cut on.
        let dir = tmp_dir("torn-runway");
        let payloads: Vec<String> = (0..5).map(|i| format!("record-number-{i}")).collect();
        let w = append_all(&dir, JournalConfig::default(), &payloads);
        let seg = w.sync_point().0;
        drop(w);
        let full = std::fs::read(&seg).unwrap();
        let end = HEADER_BYTES + 5 * (RECORD_OVERHEAD + payloads[4].len());
        let keep = end - (RECORD_OVERHEAD + payloads[4].len());
        assert!(full.len() > end, "the segment has a runway");
        for cut in keep..end {
            let mut torn = full.clone();
            torn[cut..end].fill(0);
            std::fs::write(&seg, &torn).unwrap();
            let rec = recover(&dir, 0).unwrap();
            assert_eq!(rec.last_seq, 4, "cut at {cut}");
            assert_eq!(rec.frames.len(), 4, "cut at {cut}");
            // A cut on the record's start leaves only runway: a clean
            // end. Anything inside the record is a torn tail.
            assert_eq!(rec.truncated, u64::from(cut > keep), "cut at {cut}");
            assert_eq!(rec.quarantined, 0, "cut at {cut}");
            assert_eq!(file_len(&seg), keep as u64, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bad_final_record_without_a_runway_still_quarantines() {
        let dir = tmp_dir("bad-final");
        let payloads: Vec<String> = (0..5).map(|i| format!("record-number-{i}")).collect();
        write_records(&dir, JournalConfig::default(), &payloads);
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let at = bytes.len() - 10;
        bytes[at] ^= 0x04;
        std::fs::write(&seg, &bytes).unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert_eq!((rec.truncated, rec.quarantined), (0, 1));
        assert!(matches!(
            rec.reports[0],
            ServeError::Corrupt { line: 5, .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_segments_recover_as_before() {
        // Version 1 writers appended, so zeros after the records are no
        // runway there: they stay corruption.
        let dir = tmp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_name(1));
        let payloads: Vec<String> = (0..6).map(|i| format!("v1-record-{i}")).collect();
        let mut v1 = header_with_version(1, 1).to_vec();
        for (i, p) in payloads.iter().enumerate() {
            encode_record(i as u64 + 1, p, &mut v1);
        }
        std::fs::write(&path, &v1).unwrap();
        let rec = recover(&dir, 0).unwrap();
        let got: Vec<String> = rec.frames.into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, payloads);
        assert_eq!((rec.truncated, rec.quarantined), (0, 0));
        assert_eq!(std::fs::read(&path).unwrap(), v1);
        // A cut inside the last record is a torn tail.
        std::fs::write(&path, &v1[..v1.len() - 3]).unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert_eq!((rec.last_seq, rec.truncated, rec.quarantined), (5, 1, 0));
        // Zeros after the last record quarantine.
        let mut zeroed = v1.clone();
        zeroed.resize(v1.len() + 64, 0);
        std::fs::write(&path, &zeroed).unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert_eq!((rec.last_seq, rec.truncated, rec.quarantined), (6, 0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_fail_window_holds_the_durable_watermark() {
        let dir = tmp_dir("fsync");
        let faults = FaultPlan::new(3)
            .with(FaultEvent::FsyncFail {
                start_ns: 10,
                end_ns: 20,
            })
            .storage_faults();
        let mut w = JournalWriter::open(&dir, JournalConfig::default(), 1, Some(faults)).unwrap();
        assert_eq!(w.append(5, "before").unwrap(), 1);
        assert_eq!(w.synced_seq(), 1);
        w.append(15, "inside").unwrap();
        assert_eq!(w.synced_seq(), 1, "sync failed inside the window");
        assert_eq!(w.stats().fsync_failed, 1);
        w.append(25, "after").unwrap();
        assert_eq!(w.synced_seq(), 3, "sync resumes past the window");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn record_encode_decode_round_trips(
            seq in 1u64..u64::MAX / 2,
            payload in proptest::collection::vec(32u8..127, 0..200),
        ) {
            let text: String = payload.iter().map(|&b| b as char).collect();
            let mut frame = Vec::new();
            encode_record(seq, &text, &mut frame);
            prop_assert_eq!(frame.len(), RECORD_OVERHEAD + text.len());
            match decode_at(&frame, 0, seq) {
                Decoded::Record { payload, next } => {
                    prop_assert_eq!(payload, text);
                    prop_assert_eq!(next, frame.len());
                }
                _ => prop_assert!(false, "valid frame failed to decode"),
            }
            // A wrong expected sequence is corruption, not a record.
            prop_assert!(matches!(decode_at(&frame, 0, seq + 1), Decoded::Corrupt { .. }));
        }

        #[test]
        fn truncated_journals_recover_the_longest_valid_prefix(
            count in 2usize..12,
            cut_back in 1usize..40,
        ) {
            let dir = tmp_dir(&format!("prop-{count}-{cut_back}"));
            let payloads: Vec<String> =
                (0..count).map(|i| format!("prop-payload-{i:03}")).collect();
            write_records(&dir, JournalConfig::default(), &payloads);
            let seg = list_segments(&dir).unwrap().pop().unwrap();
            let full = std::fs::read(&seg).unwrap();
            let cut = full.len().saturating_sub(cut_back).max(HEADER_BYTES);
            std::fs::write(&seg, &full[..cut]).unwrap();
            let rec = recover(&dir, 0).unwrap();
            // Longest valid prefix: every surviving record intact, in order.
            let mut expected = 0u64;
            let mut offset = HEADER_BYTES;
            for p in &payloads {
                let next = offset + RECORD_OVERHEAD + p.len();
                if next > cut { break; }
                expected += 1;
                offset = next;
            }
            prop_assert_eq!(rec.last_seq, expected);
            prop_assert_eq!(rec.frames.len() as u64, expected);
            prop_assert_eq!(rec.quarantined, 0);
            // Torn only when the cut lands strictly inside a record;
            // a cut on a boundary is a clean (shorter) journal.
            prop_assert_eq!(rec.truncated, u64::from(cut > offset));
            for (i, (seq, p)) in rec.frames.iter().enumerate() {
                prop_assert_eq!(*seq, i as u64 + 1);
                prop_assert_eq!(p, &payloads[i]);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
