//! The write-ahead log and checkpoint files: the durability plane's
//! storage layer.
//!
//! ## File layout
//!
//! A durability directory holds one append-only log plus a small ring of
//! checkpoint generations:
//!
//! ```text
//! <dir>/wal.log                      the live write-ahead log
//! <dir>/checkpoint-<seq>.cscidx      serialized CscIndex (CSCIDX\x04)
//! <dir>/checkpoint-<seq>.tmp         in-flight checkpoint (ignored)
//! ```
//!
//! `<seq>` is the zero-padded window sequence number the checkpoint
//! covers: every logged window carries a monotonically increasing `seq`,
//! and a checkpoint named `seq` contains the state after applying all
//! windows `<= seq`. Recovery loads the newest readable checkpoint and
//! replays exactly the WAL records with a larger `seq`, merged into one
//! window.
//!
//! ## Log format (little-endian)
//!
//! ```text
//! header   "CSCWAL\x01\n"  8 bytes
//!          base_seq        u64   (seq of the checkpoint this log follows)
//!          crc32           u32   (over magic + base_seq)
//! record   payload_len     u32
//!          crc32           u32   (over the payload)
//!          payload:
//!            seq           u64
//!            count         u32
//!            ops           count * (tag u8, a u32, b u32)
//! ```
//!
//! Every record is appended with one buffered write per field group and
//! (per [`FsyncPolicy`]) fsynced, *before* the window is applied to the
//! index — so an applied update is always reconstructible. A crash mid-
//! append leaves a torn tail: on open, the scan stops at the first record
//! whose length prefix runs past the file, whose CRC mismatches, or
//! whose payload is malformed, and truncates the file there. Whatever
//! validly precedes the tear is kept — it is exactly the acknowledged-
//! and-durable prefix.

use crate::batch::GraphUpdate;
use crate::config::FsyncPolicy;
use crate::crc::crc32;
use crate::error::CscError;
use csc_graph::VertexId;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The WAL header magic (version 1).
const WAL_MAGIC: &[u8; 8] = b"CSCWAL\x01\n";
/// Header length: magic + base_seq + crc.
const WAL_HEADER_LEN: u64 = 8 + 8 + 4;
/// Upper bound on a record payload, guarding allocation against garbage
/// length prefixes (a window of ~7.4M updates — far beyond any batch).
const MAX_RECORD_PAYLOAD: u32 = 1 << 26;

/// The log file's name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

fn wal_corrupt(detail: impl Into<String>) -> CscError {
    CscError::corrupt("wal", detail)
}

/// One decoded WAL record: an update window and its sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The window's sequence number (monotone across the log).
    pub seq: u64,
    /// The updates of the window, in submission order.
    pub updates: Vec<GraphUpdate>,
}

/// What opening (and possibly repairing) a log found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Valid records present after the scan.
    pub records: usize,
    /// Bytes dropped from the tail (torn final append or trailing
    /// corruption).
    pub truncated_bytes: u64,
}

fn encode_update(buf: &mut Vec<u8>, u: GraphUpdate) {
    let (tag, a, b) = match u {
        GraphUpdate::InsertEdge(a, b) => (0u8, a.0, b.0),
        GraphUpdate::RemoveEdge(a, b) => (1u8, a.0, b.0),
        GraphUpdate::AddVertex => (2u8, 0, 0),
    };
    buf.push(tag);
    buf.extend_from_slice(&a.to_le_bytes());
    buf.extend_from_slice(&b.to_le_bytes());
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() < 12 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let count = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
    if payload.len() != 12 + count * 9 {
        return None;
    }
    let mut updates = Vec::with_capacity(count);
    for chunk in payload[12..].chunks_exact(9) {
        let a = VertexId(u32::from_le_bytes(chunk[1..5].try_into().ok()?));
        let b = VertexId(u32::from_le_bytes(chunk[5..9].try_into().ok()?));
        updates.push(match chunk[0] {
            0 => GraphUpdate::InsertEdge(a, b),
            1 => GraphUpdate::RemoveEdge(a, b),
            2 => GraphUpdate::AddVertex,
            _ => return None,
        });
    }
    Some(WalRecord { seq, updates })
}

/// Scans `bytes` (positioned after the header) into valid records,
/// returning them plus the byte offset just past the last valid record.
fn scan_records(bytes: &[u8], base_seq: u64) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut last_seq = base_seq;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            break; // empty or torn length/crc prefix
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        if len > MAX_RECORD_PAYLOAD || rest.len() < 8 + len as usize {
            break; // garbage length or torn payload
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break; // bit rot or torn rewrite
        }
        let Some(record) = decode_payload(payload) else {
            break; // internally malformed despite a matching CRC
        };
        if record.seq <= last_seq {
            break; // sequence regressed: not a continuation of this log
        }
        last_seq = record.seq;
        pos += 8 + len as usize;
        records.push(record);
    }
    (records, pos)
}

/// An append-only, CRC-framed log of update windows.
pub struct WriteAheadLog {
    file: File,
    path: PathBuf,
    base_seq: u64,
    last_seq: u64,
    fsync: FsyncPolicy,
    appends_since_sync: u32,
}

impl WriteAheadLog {
    /// Creates (truncating any previous log at `path`) a fresh log whose
    /// records will follow checkpoint `base_seq`.
    pub fn create(path: &Path, base_seq: u64, fsync: FsyncPolicy) -> Result<Self, CscError> {
        faultpoint_io!("io.wal.create");
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| CscError::io("wal.create", &e))?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&base_seq.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&header)
            .and_then(|()| file.sync_all())
            .map_err(|e| CscError::io("wal.create", &e))?;
        Ok(WriteAheadLog {
            file,
            path: path.to_path_buf(),
            base_seq,
            last_seq: base_seq,
            fsync,
            appends_since_sync: 0,
        })
    }

    /// Opens an existing log for appending, truncating any torn tail
    /// first (see the module docs). Errors with [`CscError::Corrupt`] if
    /// the *header* itself is unreadable — there is then no trustworthy
    /// prefix at all — and with [`CscError::Io`] if the file cannot be
    /// read or reopened.
    pub fn open(path: &Path, fsync: FsyncPolicy) -> Result<(Self, WalOpenReport), CscError> {
        let scan = ScannedLog::read(path)?;
        Ok((scan.reopen(fsync)?, scan.report))
    }

    /// Reads every valid record of the log at `path` without modifying
    /// the file. Returns the base sequence, the records, and what a
    /// repair pass *would* truncate.
    pub fn read_all(path: &Path) -> Result<(u64, Vec<WalRecord>, WalOpenReport), CscError> {
        let scan = ScannedLog::read(path)?;
        Ok((scan.base_seq, scan.records, scan.report))
    }

    fn check_header(bytes: &[u8]) -> Result<u64, CscError> {
        if bytes.len() < WAL_HEADER_LEN as usize {
            return Err(wal_corrupt(format!(
                "header truncated ({} of {WAL_HEADER_LEN} bytes)",
                bytes.len()
            )));
        }
        if &bytes[..8] != WAL_MAGIC {
            return Err(wal_corrupt("bad magic (not a CSC write-ahead log)"));
        }
        let crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
        if crc32(&bytes[..16]) != crc {
            return Err(wal_corrupt("header crc mismatch"));
        }
        Ok(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
    }

    /// The checkpoint sequence this log continues from.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The sequence of the last appended (or recovered) record.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Appends one window as a record with sequence `seq`, honoring the
    /// fsync policy. Must be called *before* the window is applied to
    /// the index (write-ahead).
    pub fn append(&mut self, seq: u64, window: &[GraphUpdate]) -> Result<(), CscError> {
        debug_assert!(seq > self.last_seq, "WAL sequence must be monotone");
        faultpoint!("wal.append.pre");
        faultpoint_io!("io.wal.append");
        let mut payload = Vec::with_capacity(12 + window.len() * 9);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&(window.len() as u32).to_le_bytes());
        for &u in window {
            encode_update(&mut payload, u);
        }
        let mut prefix = [0u8; 8];
        prefix[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        prefix[4..].copy_from_slice(&crc32(&payload).to_le_bytes());
        // Two writes with a faultpoint between them: an injected crash
        // here leaves exactly the torn tail a real mid-append crash
        // would, which the recovery tests rely on.
        let write_err = |e: std::io::Error| CscError::io("wal.append", &e);
        self.file.write_all(&prefix).map_err(write_err)?;
        let split = payload.len() / 2;
        self.file.write_all(&payload[..split]).map_err(write_err)?;
        faultpoint!("wal.append.torn");
        faultpoint_io!("io.wal.append.torn");
        self.file.write_all(&payload[split..]).map_err(write_err)?;
        self.last_seq = seq;
        self.appends_since_sync += 1;
        let sync_now = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Every(n) => self.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if sync_now {
            self.sync()?;
        }
        faultpoint!("wal.append.post");
        Ok(())
    }

    /// Appends like [`append`](Self::append), retrying transient I/O
    /// failures under `retry` (salted by `seq` for deterministic jitter).
    ///
    /// A failed append may have written part of the record; retrying
    /// naively would splice that garbage into the log and stop every
    /// future scan at it. So before each retry — and before giving up —
    /// the tail is rolled back (`set_len` + seek) to its pre-append
    /// position and the in-memory sequence state restored. If the
    /// rollback itself fails the log can no longer be trusted and the
    /// error comes back as [`CscError::Corrupt`] (never retried).
    pub fn append_retrying(
        &mut self,
        seq: u64,
        window: &[GraphUpdate],
        retry: &crate::guard::RetryPolicy,
    ) -> Result<(), CscError> {
        let start = self
            .file
            .stream_position()
            .map_err(|e| CscError::io("wal.append", &e))?;
        let prior = (self.last_seq, self.appends_since_sync);
        retry.run(seq, |_| match self.append(seq, window) {
            Ok(()) => Ok(()),
            Err(e) => {
                (self.last_seq, self.appends_since_sync) = prior;
                self.file
                    .set_len(start)
                    .and_then(|()| self.file.seek(SeekFrom::Start(start)).map(|_| ()))
                    .map_err(|re| {
                        wal_corrupt(format!("cannot roll back torn append: {re} (after {e})"))
                    })?;
                Err(e)
            }
        })
    }

    /// Forces the log's bytes to stable storage now.
    pub fn sync(&mut self) -> Result<(), CscError> {
        faultpoint_io!("io.wal.fsync");
        self.file
            .sync_data()
            .map_err(|e| CscError::io("wal.fsync", &e))?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Restarts the log after a checkpoint at `base_seq`: truncates to a
    /// fresh header whose records continue from there. (The rotated-out
    /// records are all `<= base_seq`, covered by the checkpoint.)
    pub fn rotate(&mut self, base_seq: u64) -> Result<(), CscError> {
        faultpoint!("wal.rotate.pre");
        *self = WriteAheadLog::create(&self.path.clone(), base_seq, self.fsync)?;
        Ok(())
    }
}

/// A log read and scanned once, not yet reopened for appends: its
/// records and where its valid prefix ends.
///
/// Recovery reads through this once, replays, and only then
/// [`reopen`](Self::reopen)s. So a recovery that fails or refuses leaves
/// the file as it found it, and a read error (fatal to recovery) stays
/// apart from a reopen error (which only degrades durability).
pub(crate) struct ScannedLog {
    path: PathBuf,
    /// The checkpoint sequence the log continues from.
    pub(crate) base_seq: u64,
    /// Every valid record, in log order.
    pub(crate) records: Vec<WalRecord>,
    /// Records found and the torn tail a reopen drops.
    pub(crate) report: WalOpenReport,
    /// Byte offset just past the last valid record.
    valid_end: u64,
}

impl ScannedLog {
    /// Reads and scans the log at `path`. A file that cannot be read is a
    /// [`CscError::Io`] (retryable, and never mistaken for a destroyed
    /// log); a damaged header is [`CscError::Corrupt`].
    pub(crate) fn read(path: &Path) -> Result<Self, CscError> {
        faultpoint_io!("io.wal.read");
        let bytes = fs::read(path).map_err(|e| CscError::io("wal.read", &e))?;
        let base_seq = WriteAheadLog::check_header(&bytes)?;
        let (records, body_end) = scan_records(&bytes[WAL_HEADER_LEN as usize..], base_seq);
        let valid_end = WAL_HEADER_LEN + body_end as u64;
        Ok(ScannedLog {
            path: path.to_path_buf(),
            base_seq,
            report: WalOpenReport {
                records: records.len(),
                truncated_bytes: bytes.len() as u64 - valid_end,
            },
            records,
            valid_end,
        })
    }

    /// The sequence of the last valid record (the base when there is
    /// none).
    pub(crate) fn last_seq(&self) -> u64 {
        self.records.last().map_or(self.base_seq, |r| r.seq)
    }

    /// Reopens the log for appending after its last valid record,
    /// dropping the torn tail the scan found.
    pub(crate) fn reopen(&self, fsync: FsyncPolicy) -> Result<WriteAheadLog, CscError> {
        faultpoint_io!("io.wal.open");
        let io_err = |e: std::io::Error| CscError::io("wal.open", &e);
        let mut file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(io_err)?;
        if self.report.truncated_bytes > 0 {
            file.set_len(self.valid_end)
                .and_then(|()| file.sync_all())
                .map_err(io_err)?;
            faultpoint!("wal.open.truncated");
        }
        file.seek(SeekFrom::Start(self.valid_end)).map_err(io_err)?;
        Ok(WriteAheadLog {
            file,
            path: self.path.clone(),
            base_seq: self.base_seq,
            last_seq: self.last_seq(),
            fsync,
            appends_since_sync: 0,
        })
    }
}

// ---------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------

const CKPT_PREFIX: &str = "checkpoint-";
const CKPT_SUFFIX: &str = ".cscidx";

/// The canonical path of the checkpoint covering windows `<= seq`.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{CKPT_PREFIX}{seq:020}{CKPT_SUFFIX}"))
}

/// Writes a checkpoint atomically: the bytes go to a `.tmp` sibling,
/// are fsynced, and only then renamed into place (a crash mid-write
/// leaves a `.tmp` that recovery ignores, never a half-readable
/// checkpoint under the real name), finishing with a directory fsync so
/// the rename itself is durable.
pub fn write_checkpoint(dir: &Path, seq: u64, bytes: &[u8]) -> Result<PathBuf, CscError> {
    faultpoint_io!("io.checkpoint.write");
    let final_path = checkpoint_path(dir, seq);
    let tmp_path = final_path.with_extension("tmp");
    let io_err = |e: std::io::Error| CscError::io("checkpoint.write", &e);
    let mut tmp = File::create(&tmp_path).map_err(io_err)?;
    let split = bytes.len() / 2;
    tmp.write_all(&bytes[..split]).map_err(io_err)?;
    faultpoint!("checkpoint.torn");
    tmp.write_all(&bytes[split..]).map_err(io_err)?;
    tmp.sync_all().map_err(io_err)?;
    drop(tmp);
    faultpoint!("checkpoint.pre-rename");
    faultpoint_io!("io.checkpoint.rename");
    fs::rename(&tmp_path, &final_path).map_err(|e| CscError::io("checkpoint.rename", &e))?;
    // Make the rename durable: without the directory fsync the new name
    // may not survive a power cut even though the data blocks would. A
    // failure here is a real durability failure and must be loud — the
    // caller retries or degrades, never assumes the checkpoint stuck.
    faultpoint_io!("io.checkpoint.dirsync");
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| CscError::io("checkpoint.dirsync", &e))?;
    faultpoint!("checkpoint.post");
    Ok(final_path)
}

/// Lists the checkpoints in `dir`, newest first. Unparseable names and
/// `.tmp` leftovers are ignored.
pub fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(CKPT_PREFIX)
            .and_then(|s| s.strip_suffix(CKPT_SUFFIX))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    found
}

/// Removes all but the newest `keep` checkpoints (and any stale `.tmp`
/// files). Best-effort: an unremovable file is left for the next pass.
pub fn prune_checkpoints(dir: &Path, keep: usize) {
    for (_, path) in list_checkpoints(dir).into_iter().skip(keep.max(1)) {
        let _ = fs::remove_file(path);
    }
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            let is_stale_tmp = path.extension().is_some_and(|e| e == "tmp")
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(CKPT_PREFIX));
            if is_stale_tmp {
                let _ = fs::remove_file(path);
            }
        }
    }
}

/// Reads a file fully (checkpoint loading helper with a uniform error).
/// Real read failures come back as [`CscError::Corrupt`] — the recovery
/// loader's fall-back-a-generation signal — while the `io.checkpoint.read`
/// faultpoint injects [`CscError::Io`] to exercise the retry path.
pub fn read_file(path: &Path) -> Result<Vec<u8>, CscError> {
    faultpoint_io!("io.checkpoint.read");
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| {
            CscError::corrupt("checkpoint", format!("cannot read {}: {e}", path.display()))
        })?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "csc-wal-test-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_window(k: u32) -> Vec<GraphUpdate> {
        vec![
            GraphUpdate::InsertEdge(VertexId(k), VertexId(k + 1)),
            GraphUpdate::RemoveEdge(VertexId(k + 1), VertexId(k)),
            GraphUpdate::AddVertex,
        ]
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let mut wal = WriteAheadLog::create(&path, 7, FsyncPolicy::Always).unwrap();
        for k in 0..5u32 {
            wal.append(8 + k as u64, &sample_window(k)).unwrap();
        }
        drop(wal);

        let (base, records, report) = WriteAheadLog::read_all(&path).unwrap();
        assert_eq!(base, 7);
        assert_eq!(
            report,
            WalOpenReport {
                records: 5,
                truncated_bytes: 0
            }
        );
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].seq, 8);
        assert_eq!(records[4].seq, 12);
        assert_eq!(records[2].updates, sample_window(2));

        // Reopen for appending: position and sequences continue.
        let (mut wal, report) = WriteAheadLog::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(wal.last_seq(), 12);
        wal.append(13, &[GraphUpdate::AddVertex]).unwrap();
        wal.sync().unwrap();
        let (_, records, _) = WriteAheadLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 6);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        let dir = temp_dir("torn");
        let path = dir.join(WAL_FILE);
        let mut wal = WriteAheadLog::create(&path, 0, FsyncPolicy::Always).unwrap();
        wal.append(1, &sample_window(0)).unwrap();
        wal.append(2, &sample_window(1)).unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();
        let one_record_end = WAL_HEADER_LEN as usize + 8 + 12 + 3 * 9;

        for cut in one_record_end..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (wal, report) = WriteAheadLog::open(&path, FsyncPolicy::Always).unwrap();
            assert_eq!(report.records, 1, "cut at {cut}");
            assert_eq!(
                report.truncated_bytes,
                (cut - one_record_end) as u64,
                "cut at {cut}"
            );
            assert_eq!(wal.last_seq(), 1);
            drop(wal);
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                one_record_end as u64,
                "file physically truncated at {cut}"
            );
            // A truncated-then-reopened log accepts fresh appends.
            let (mut wal, _) = WriteAheadLog::open(&path, FsyncPolicy::Always).unwrap();
            wal.append(2, &sample_window(9)).unwrap();
            let (_, records, _) = WriteAheadLog::read_all(&path).unwrap();
            assert_eq!(records.len(), 2);
            fs::write(&path, &full).unwrap(); // restore for the next cut
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mid_log_bit_flips_stop_the_scan_without_panicking() {
        let dir = temp_dir("flip");
        let path = dir.join(WAL_FILE);
        let mut wal = WriteAheadLog::create(&path, 0, FsyncPolicy::Never).unwrap();
        for k in 0..4u32 {
            wal.append(1 + k as u64, &sample_window(k)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();

        let mut s = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let byte = (s >> 13) as usize % full.len();
            let bit = (s >> 7) % 8;
            let mut flipped = full.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(&path, &flipped).unwrap();
            match WriteAheadLog::read_all(&path) {
                Ok((base, records, _)) => {
                    // A flip in a later record must not corrupt earlier ones.
                    assert_eq!(base, 0);
                    assert!(records.len() < 4, "flip at {byte}.{bit} undetected");
                    for (i, r) in records.iter().enumerate() {
                        assert_eq!(r.seq, 1 + i as u64);
                        assert_eq!(r.updates, sample_window(i as u32));
                    }
                }
                Err(CscError::Corrupt { .. }) => {} // header flip
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn header_garbage_is_rejected() {
        let dir = temp_dir("hdr");
        let path = dir.join(WAL_FILE);
        fs::write(&path, b"short").unwrap();
        assert!(matches!(
            WriteAheadLog::open(&path, FsyncPolicy::Always),
            Err(CscError::Corrupt { .. })
        ));
        fs::write(&path, vec![0xAB; 64]).unwrap();
        assert!(matches!(
            WriteAheadLog::read_all(&path),
            Err(CscError::Corrupt { .. })
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rotation_resets_the_log() {
        let dir = temp_dir("rotate");
        let path = dir.join(WAL_FILE);
        let mut wal = WriteAheadLog::create(&path, 0, FsyncPolicy::Always).unwrap();
        for k in 0..3u32 {
            wal.append(1 + k as u64, &sample_window(k)).unwrap();
        }
        wal.rotate(3).unwrap();
        assert_eq!(wal.base_seq(), 3);
        wal.append(4, &sample_window(7)).unwrap();
        drop(wal);
        let (base, records, _) = WriteAheadLog::read_all(&path).unwrap();
        assert_eq!(base, 3);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 4);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_write_list_prune() {
        let dir = temp_dir("ckpt");
        write_checkpoint(&dir, 5, b"five").unwrap();
        write_checkpoint(&dir, 9, b"nine").unwrap();
        write_checkpoint(&dir, 2, b"two").unwrap();
        // A stale tmp from a "crashed" checkpoint attempt is ignored.
        fs::write(dir.join("checkpoint-00000000000000000011.tmp"), b"torn").unwrap();
        let listed = list_checkpoints(&dir);
        assert_eq!(
            listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![9, 5, 2]
        );
        assert_eq!(fs::read(&listed[0].1).unwrap(), b"nine");

        prune_checkpoints(&dir, 2);
        let listed = list_checkpoints(&dir);
        assert_eq!(
            listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![9, 5]
        );
        assert!(
            !dir.join("checkpoint-00000000000000000011.tmp").exists(),
            "stale tmp swept"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    #[cfg(feature = "fault-injection")]
    fn append_retrying_rolls_back_partial_bytes() {
        use crate::fault;
        use crate::guard::RetryPolicy;
        let _guard = fault::test_lock();
        fault::reset();
        let dir = temp_dir("retry");
        let path = dir.join(WAL_FILE);
        let mut wal = WriteAheadLog::create(&path, 0, FsyncPolicy::Always).unwrap();
        wal.append(1, &sample_window(0)).unwrap();
        let retry = RetryPolicy::new(3, std::time::Duration::ZERO, std::time::Duration::ZERO);

        // A mid-write failure leaves partial bytes behind; the retry must
        // roll them back before rewriting, or the spliced garbage would
        // stop every future scan at it.
        fault::arm_io("io.wal.append.torn", 1, std::io::ErrorKind::Interrupted, 1);
        wal.append_retrying(2, &sample_window(1), &retry).unwrap();
        let (_, records, report) = WriteAheadLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.truncated_bytes, 0, "no spliced garbage");

        // Persistent failure: no retry, tail rolled back to the clean
        // position, and the log still accepts the next append.
        let clean_len = fs::metadata(&path).unwrap().len();
        fault::arm_io("io.wal.append", 1, std::io::ErrorKind::StorageFull, 9);
        let err = wal
            .append_retrying(3, &sample_window(2), &retry)
            .unwrap_err();
        assert!(!err.is_transient_io(), "{err}");
        fault::reset();
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(
            wal.last_seq(),
            2,
            "failed append leaves the sequence untouched"
        );
        wal.append_retrying(3, &sample_window(2), &retry).unwrap();
        let (_, records, _) = WriteAheadLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 3);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sequence_regression_stops_the_scan() {
        let dir = temp_dir("seqreg");
        let path = dir.join(WAL_FILE);
        // Hand-craft a log whose second record repeats seq 1: a valid
        // CRC but an impossible continuation (e.g. blocks from two log
        // generations spliced by a filesystem bug).
        let mut wal = WriteAheadLog::create(&path, 0, FsyncPolicy::Always).unwrap();
        wal.append(1, &sample_window(0)).unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        let record = bytes[WAL_HEADER_LEN as usize..].to_vec();
        bytes.extend_from_slice(&record); // duplicate record, same seq
        fs::write(&path, &bytes).unwrap();
        let (_, records, report) = WriteAheadLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(report.truncated_bytes, record.len() as u64);
        fs::remove_dir_all(dir).unwrap();
    }
}
