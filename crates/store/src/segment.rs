//! The log-structured [`SegmentStore`]: an append-only segment log with
//! group commit, a manifest of live segments, and compaction.
//!
//! # Layout
//!
//! A store directory holds:
//!
//! - `manifest.json` — `{"v": 1, "kind": "manifest", "segments": [ids]}`,
//!   the authoritative, atomically-swapped (write-temp-then-rename) list
//!   of live segments, ascending; the last id is the **active** segment;
//! - `seg-<id>.log` — binary frames, appended in write order:
//!
//! ```text
//! PUT    'P' | key len u32 | value len u32 | key | value | crc32
//! DEL    'D' | key len u32 | key | crc32
//! COMMIT 'C' | sequence u64 | crc32
//! ```
//!
//! each crc32 (IEEE) covering every preceding byte of its frame.
//!
//! # Group commit
//!
//! `put`/`remove` append frames immediately (so reads see them) but
//! defer the fsync: once the pending batch crosses the configured op or
//! byte threshold — or the commit interval elapses — one `COMMIT` frame
//! is appended and the segment is synced. [`SnapshotStore::flush`]
//! forces the commit, which is what `checkpoint` calls. **Recovery lands
//! exactly at the last commit**: on open, frames after the final valid
//! `COMMIT` are discarded and the file is truncated back to it. A torn
//! tail is therefore normal shutdown debris; an invalid frame *followed
//! by* a valid `COMMIT` can only mean corruption of committed data and
//! is a typed [`StoreError::Corrupt`], never a panic.
//!
//! # Compaction
//!
//! Overwrites and deletes leave dead frames behind. Sealed segments
//! whose live-record ratio falls below the configured threshold are
//! rewritten: live records are re-appended to the active segment,
//! committed, and only then is the manifest swapped without the victim
//! and its file deleted — so a crash at any point leaves either the old
//! manifest (duplicate records, newest wins on replay) or the new one
//! (orphan file, swept on open).
//!
//! # Import
//!
//! Opening a directory in the one-file-per-record layout earlier releases
//! wrote (`<key>.json` files, no manifest) imports every record into the
//! log, commits, writes the manifest and removes the imported files —
//! deployments upgrade in place. The layout stays shard-count-stable
//! because keys, not shards, are the unit of storage; concurrent shard
//! workers share one log through cloned [`SegmentHandle`]s. A segment
//! directory has a **single writing process**.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use webrobot_data::{parse_json, Value};

use crate::{check_key, SnapshotStore, StoreError, StoreIoStats};

const TAG_PUT: u8 = b'P';
const TAG_DEL: u8 = b'D';
const TAG_COMMIT: u8 = b'C';
/// Plausibility cap on a key during recovery scans (keys are short ids).
const MAX_KEY: usize = 4096;
/// Plausibility cap on a record payload (matches the wire frame cap).
const MAX_RECORD: usize = 16 * 1024 * 1024;
/// A commit frame is tag + sequence + crc.
const COMMIT_FRAME: usize = 1 + 8 + 4;
const MANIFEST: &str = "manifest.json";

/// CRC-32 (IEEE 802.3, reflected) — bitwise, dependency-free; record
/// payloads are kilobytes, so table-free is fast enough.
fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

fn be64(b: &[u8]) -> u64 {
    u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id}.log"))
}

/// Tuning knobs for a [`SegmentStore`]. The defaults suit the session
/// workload (kilobyte records, bursty checkpoints); benches sweep them.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Commit once this many operations are pending.
    pub commit_ops: usize,
    /// Commit once this many bytes are pending.
    pub commit_bytes: u64,
    /// Commit when the oldest pending operation is this old (checked on
    /// each write — the store has no background thread).
    pub commit_interval: Duration,
    /// Seal the active segment and start a new one beyond this size.
    pub max_segment_bytes: u64,
    /// Compact a sealed segment when live records fall to this
    /// percentage of its total records or below.
    pub compact_live_percent: u32,
    /// Never compact segments with fewer records than this.
    pub compact_min_records: u64,
}

impl Default for SegmentConfig {
    fn default() -> SegmentConfig {
        SegmentConfig {
            commit_ops: 8,
            commit_bytes: 256 * 1024,
            commit_interval: Duration::from_millis(25),
            max_segment_bytes: 4 * 1024 * 1024,
            compact_live_percent: 50,
            compact_min_records: 16,
        }
    }
}

/// Where a live record's value bytes sit.
#[derive(Debug, Clone, Copy)]
struct Location {
    seg: u64,
    offset: u64,
    len: u32,
}

/// Per-segment accounting for compaction decisions.
#[derive(Debug, Default)]
struct SegmentInfo {
    /// PUT frames ever written to the segment (committed ones on reopen).
    records: u64,
    /// Index entries currently pointing into the segment.
    live: u64,
}

/// One committed operation recovered from a segment scan.
enum ScanOp {
    Put { key: String, offset: u64, len: u32 },
    Del { key: String },
}

/// What a segment scan found: operations covered by a commit, in order.
struct Scan {
    ops: Vec<ScanOp>,
    committed_len: u64,
    records: u64,
    last_seq: u64,
}

enum Frame {
    Put { key: String, offset: u64, len: u32 },
    Del { key: String },
    Commit { seq: u64 },
}

/// Parses the frame at `pos`; `Err(())` for anything that is not a
/// complete, checksummed, plausible frame.
fn parse_frame(buf: &[u8], pos: usize) -> Result<(Frame, usize), ()> {
    let rem = &buf[pos..];
    let check = |total: usize| -> Result<(), ()> {
        if rem.len() < total || crc32(&rem[..total - 4]) != be32(&rem[total - 4..total]) {
            Err(())
        } else {
            Ok(())
        }
    };
    let key_at = |at: usize, klen: usize| -> Result<String, ()> {
        let key = std::str::from_utf8(&rem[at..at + klen]).map_err(|_| ())?;
        check_key(key).map_err(|_| ())?;
        Ok(key.to_string())
    };
    match rem.first() {
        Some(&TAG_PUT) => {
            if rem.len() < 9 {
                return Err(());
            }
            let klen = be32(&rem[1..5]) as usize;
            let vlen = be32(&rem[5..9]) as usize;
            if klen == 0 || klen > MAX_KEY || vlen > MAX_RECORD {
                return Err(());
            }
            let total = 9 + klen + vlen + 4;
            check(total)?;
            Ok((
                Frame::Put {
                    key: key_at(9, klen)?,
                    offset: (pos + 9 + klen) as u64,
                    len: vlen as u32,
                },
                pos + total,
            ))
        }
        Some(&TAG_DEL) => {
            if rem.len() < 5 {
                return Err(());
            }
            let klen = be32(&rem[1..5]) as usize;
            if klen == 0 || klen > MAX_KEY {
                return Err(());
            }
            let total = 5 + klen + 4;
            check(total)?;
            Ok((
                Frame::Del {
                    key: key_at(5, klen)?,
                },
                pos + total,
            ))
        }
        Some(&TAG_COMMIT) => {
            check(COMMIT_FRAME)?;
            Ok((
                Frame::Commit {
                    seq: be64(&rem[1..9]),
                },
                pos + COMMIT_FRAME,
            ))
        }
        _ => Err(()),
    }
}

/// `true` when a valid commit frame exists anywhere at or after `from` —
/// which means a fault at `from` sits in *committed* territory.
fn later_commit_exists(buf: &[u8], from: usize) -> bool {
    (from..buf.len().saturating_sub(COMMIT_FRAME - 1)).any(|q| {
        buf[q] == TAG_COMMIT
            && crc32(&buf[q..q + COMMIT_FRAME - 4])
                == be32(&buf[q + COMMIT_FRAME - 4..q + COMMIT_FRAME])
    })
}

/// Scans one segment, applying the group-commit recovery contract: only
/// frames covered by a valid `COMMIT` count; a fault in the uncommitted
/// tail of the active segment truncates, a fault anywhere else is typed
/// corruption.
fn scan_segment(buf: &[u8], name: &str, sealed: bool) -> Result<Scan, StoreError> {
    let mut pos = 0usize;
    let mut pending: Vec<ScanOp> = Vec::new();
    let mut pending_records = 0u64;
    let mut scan = Scan {
        ops: Vec::new(),
        committed_len: 0,
        records: 0,
        last_seq: 0,
    };
    while pos < buf.len() {
        match parse_frame(buf, pos) {
            Ok((Frame::Put { key, offset, len }, next)) => {
                pending.push(ScanOp::Put { key, offset, len });
                pending_records += 1;
                pos = next;
            }
            Ok((Frame::Del { key }, next)) => {
                pending.push(ScanOp::Del { key });
                pos = next;
            }
            Ok((Frame::Commit { seq }, next)) => {
                scan.ops.append(&mut pending);
                scan.records += pending_records;
                pending_records = 0;
                scan.last_seq = seq;
                scan.committed_len = next as u64;
                pos = next;
            }
            Err(()) => {
                if sealed {
                    return Err(StoreError::corrupt(
                        name,
                        format!("invalid frame at byte {pos} of a sealed segment"),
                    ));
                }
                if later_commit_exists(buf, pos) {
                    return Err(StoreError::corrupt(
                        name,
                        format!("invalid frame at byte {pos} before a later group commit"),
                    ));
                }
                // A torn, uncommitted tail: normal hard-kill debris.
                return Ok(scan);
            }
        }
    }
    if sealed && !pending.is_empty() {
        return Err(StoreError::corrupt(
            name,
            "sealed segment ends with uncommitted frames",
        ));
    }
    Ok(scan)
}

fn put_frame(key: &str, value: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(9 + key.len() + value.len() + 4);
    frame.push(TAG_PUT);
    frame.extend_from_slice(&(key.len() as u32).to_be_bytes());
    frame.extend_from_slice(&(value.len() as u32).to_be_bytes());
    frame.extend_from_slice(key.as_bytes());
    frame.extend_from_slice(value);
    frame.extend_from_slice(&crc32(&frame).to_be_bytes());
    frame
}

fn del_frame(key: &str) -> Vec<u8> {
    let mut frame = Vec::with_capacity(5 + key.len() + 4);
    frame.push(TAG_DEL);
    frame.extend_from_slice(&(key.len() as u32).to_be_bytes());
    frame.extend_from_slice(key.as_bytes());
    frame.extend_from_slice(&crc32(&frame).to_be_bytes());
    frame
}

fn commit_frame(seq: u64) -> Vec<u8> {
    let mut frame = Vec::with_capacity(COMMIT_FRAME);
    frame.push(TAG_COMMIT);
    frame.extend_from_slice(&seq.to_be_bytes());
    frame.extend_from_slice(&crc32(&frame).to_be_bytes());
    frame
}

fn read_manifest(dir: &Path) -> Result<Option<Vec<u64>>, StoreError> {
    let path = dir.join(MANIFEST);
    let raw = match fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(format!("read '{}': {e}", path.display()))),
    };
    let corrupt = |detail: String| StoreError::corrupt("manifest", detail);
    let value = parse_json(&raw).map_err(|e| corrupt(format!("invalid manifest json: {e}")))?;
    if value.field("v").and_then(Value::as_int) != Some(1) {
        return Err(corrupt("unsupported manifest version".to_string()));
    }
    if value.field("kind").and_then(Value::as_str) != Some("manifest") {
        return Err(corrupt("wrong record kind".to_string()));
    }
    let segments = value
        .field("segments")
        .and_then(Value::as_array)
        .ok_or_else(|| corrupt("field 'segments' must be an array".to_string()))?;
    let mut ids = Vec::with_capacity(segments.len());
    for entry in segments {
        let id = entry
            .as_int()
            .filter(|&id| id >= 1)
            .ok_or_else(|| corrupt("segment ids must be positive integers".to_string()))?;
        ids.push(id as u64);
    }
    if ids.is_empty() || ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(corrupt(
            "segment ids must be non-empty and strictly ascending".to_string(),
        ));
    }
    Ok(Some(ids))
}

fn write_manifest(dir: &Path, ids: &[u64]) -> Result<(), StoreError> {
    let value = Value::Object(vec![
        ("v".to_string(), Value::Int(1)),
        ("kind".to_string(), Value::str("manifest")),
        (
            "segments".to_string(),
            Value::Array(ids.iter().map(|&id| Value::Int(id as i64)).collect()),
        ),
    ]);
    let tmp = dir.join(format!("{MANIFEST}.tmp{}", std::process::id()));
    let path = dir.join(MANIFEST);
    let fail = |stage: &str, e: std::io::Error| StoreError::io(format!("{stage} manifest: {e}"));
    let mut file = File::create(&tmp).map_err(|e| fail("create", e))?;
    file.write_all(value.to_json().as_bytes())
        .map_err(|e| fail("write", e))?;
    file.sync_data().map_err(|e| fail("sync", e))?;
    drop(file);
    fs::rename(&tmp, &path).map_err(|e| fail("swap", e))
}

/// Reads (and validates) every `<key>.json` record of a directory in the
/// one-file-per-record layout, sorted by key.
fn legacy_records(dir: &Path) -> Result<Vec<(String, String)>, StoreError> {
    let entries =
        fs::read_dir(dir).map_err(|e| StoreError::io(format!("list '{}': {e}", dir.display())))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(format!("list '{}': {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(key) = name.strip_suffix(".json") else {
            continue;
        };
        if check_key(key).is_err() {
            continue;
        }
        let raw = fs::read_to_string(entry.path())
            .map_err(|e| StoreError::io(format!("read '{name}': {e}")))?;
        let value = parse_json(&raw).map_err(|e| {
            StoreError::corrupt(key, format!("invalid record json during migration: {e}"))
        })?;
        out.push((key.to_string(), value.to_json()));
    }
    out.sort();
    Ok(out)
}

/// The log-structured [`SnapshotStore`]: see the module-level source
/// docs (`segment.rs`) and `ARCHITECTURE.md` for the layout,
/// group-commit and compaction contracts.
///
/// `put`/`remove` are visible immediately but durable only at the next
/// group commit ([`SnapshotStore::flush`], a crossed batch threshold, or
/// drop). Share one log between shard workers with
/// [`SegmentStore::into_shared`].
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    cfg: SegmentConfig,
    index: BTreeMap<String, Location>,
    segments: BTreeMap<u64, SegmentInfo>,
    active: u64,
    writer: File,
    active_len: u64,
    commit_seq: u64,
    pending_ops: usize,
    pending_bytes: u64,
    last_commit: Instant,
    io: StoreIoStats,
}

impl SegmentStore {
    /// Opens (creating or migrating if necessary) the store rooted at
    /// `dir` with default tuning.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory or log cannot be accessed;
    /// [`StoreError::Corrupt`] when the manifest or a committed frame
    /// fails validation.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentStore, StoreError> {
        SegmentStore::with_config(SegmentConfig::default(), dir)
    }

    /// [`SegmentStore::open`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// As [`SegmentStore::open`].
    pub fn with_config(
        cfg: SegmentConfig,
        dir: impl Into<PathBuf>,
    ) -> Result<SegmentStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("create '{}': {e}", dir.display())))?;
        match read_manifest(&dir)? {
            None => SegmentStore::create(cfg, dir),
            Some(ids) => SegmentStore::recover(cfg, dir, &ids),
        }
    }

    /// Fresh directory (or one-file-per-record layout): import, commit,
    /// then publish the manifest — a crash before the manifest lands
    /// leaves the record files untouched and the import restarts.
    fn create(cfg: SegmentConfig, dir: PathBuf) -> Result<SegmentStore, StoreError> {
        let legacy = legacy_records(&dir)?;
        let path = seg_path(&dir, 1);
        let writer = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("create '{}': {e}", path.display())))?;
        let mut store = SegmentStore {
            dir,
            cfg,
            index: BTreeMap::new(),
            segments: BTreeMap::from([(1, SegmentInfo::default())]),
            active: 1,
            writer,
            active_len: 0,
            commit_seq: 0,
            pending_ops: 0,
            pending_bytes: 0,
            last_commit: Instant::now(),
            io: StoreIoStats::default(),
        };
        for (key, raw) in &legacy {
            store.append_put(key, raw)?;
        }
        store.commit()?;
        store
            .writer
            .sync_data()
            .map_err(|e| StoreError::io(format!("sync seg-1: {e}")))?;
        store.io.fsyncs += 1;
        write_manifest(&store.dir, &[1])?;
        for (key, _) in &legacy {
            fs::remove_file(store.dir.join(format!("{key}.json"))).ok();
        }
        Ok(store)
    }

    /// Existing manifest: replay every segment, truncate the active
    /// segment's uncommitted tail, sweep debris.
    fn recover(cfg: SegmentConfig, dir: PathBuf, ids: &[u64]) -> Result<SegmentStore, StoreError> {
        let active = *ids.last().expect("manifest ids are non-empty");
        let mut index = BTreeMap::new();
        let mut segments = BTreeMap::new();
        let mut commit_seq = 0u64;
        let mut committed_len = 0u64;
        for &id in ids {
            let path = seg_path(&dir, id);
            let buf = match fs::read(&path) {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(StoreError::corrupt(
                        "manifest",
                        format!("manifest references missing segment seg-{id}"),
                    ));
                }
                Err(e) => {
                    return Err(StoreError::io(format!("read '{}': {e}", path.display())));
                }
            };
            let scan = scan_segment(&buf, &format!("seg-{id}"), id != active)?;
            commit_seq = commit_seq.max(scan.last_seq);
            for op in scan.ops {
                match op {
                    ScanOp::Put { key, offset, len } => {
                        index.insert(
                            key,
                            Location {
                                seg: id,
                                offset,
                                len,
                            },
                        );
                    }
                    ScanOp::Del { key } => {
                        index.remove(&key);
                    }
                }
            }
            segments.insert(
                id,
                SegmentInfo {
                    records: scan.records,
                    live: 0,
                },
            );
            if id == active {
                committed_len = scan.committed_len;
            }
        }
        for loc in index.values() {
            if let Some(info) = segments.get_mut(&loc.seg) {
                info.live += 1;
            }
        }
        // Truncate the active segment's uncommitted tail and position the
        // writer at the last group commit.
        let path = seg_path(&dir, active);
        let mut writer = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("open '{}': {e}", path.display())))?;
        writer
            .set_len(committed_len)
            .and_then(|()| writer.seek(SeekFrom::Start(committed_len)))
            .map_err(|e| StoreError::io(format!("truncate '{}': {e}", path.display())))?;
        // Sweep debris: segments dropped from the manifest by an
        // interrupted compaction, manifest temp files, and record files
        // left behind by an interrupted (already-committed) migration.
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let orphan_seg = name
                    .strip_prefix("seg-")
                    .and_then(|rest| rest.strip_suffix(".log"))
                    .and_then(|id| id.parse::<u64>().ok())
                    .is_some_and(|id| !ids.contains(&id));
                let stale_tmp = name.starts_with("manifest.json.tmp");
                let leftover_record = name != MANIFEST
                    && name
                        .strip_suffix(".json")
                        .is_some_and(|key| check_key(key).is_ok());
                if orphan_seg || stale_tmp || leftover_record {
                    fs::remove_file(entry.path()).ok();
                }
            }
        }
        Ok(SegmentStore {
            dir,
            cfg,
            index,
            segments,
            active,
            writer,
            active_len: committed_len,
            commit_seq,
            pending_ops: 0,
            pending_bytes: 0,
            last_commit: Instant::now(),
            io: StoreIoStats::default(),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The ids of the segments currently in the manifest (ascending; the
    /// last is active). Exposed for compaction tests and tooling.
    pub fn segment_ids(&self) -> Vec<u64> {
        self.segments.keys().copied().collect()
    }

    /// Wraps the store for sharing: cloned handles serialize through one
    /// mutex, which is how shard workers of one deployment share a
    /// single log directory.
    pub fn into_shared(self) -> SegmentHandle {
        SegmentHandle {
            inner: Arc::new(Mutex::new(self)),
        }
    }

    fn append_frame(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        self.writer
            .write_all(frame)
            .map_err(|e| StoreError::io(format!("append to seg-{}: {e}", self.active)))?;
        self.active_len += frame.len() as u64;
        self.pending_ops += 1;
        self.pending_bytes += frame.len() as u64;
        self.io.bytes_written += frame.len() as u64;
        Ok(())
    }

    fn append_put(&mut self, key: &str, raw: &str) -> Result<(), StoreError> {
        let offset = self.active_len + 9 + key.len() as u64;
        self.append_frame(&put_frame(key, raw.as_bytes()))?;
        let location = Location {
            seg: self.active,
            offset,
            len: raw.len() as u32,
        };
        if let Some(old) = self.index.insert(key.to_string(), location) {
            if let Some(info) = self.segments.get_mut(&old.seg) {
                info.live -= 1;
            }
        }
        if let Some(info) = self.segments.get_mut(&self.active) {
            info.live += 1;
            info.records += 1;
        }
        Ok(())
    }

    /// Writes the `COMMIT` frame and syncs — the group-commit barrier.
    fn commit(&mut self) -> Result<(), StoreError> {
        if self.pending_ops == 0 {
            return Ok(());
        }
        self.commit_seq += 1;
        let frame = commit_frame(self.commit_seq);
        self.writer
            .write_all(&frame)
            .map_err(|e| StoreError::io(format!("commit to seg-{}: {e}", self.active)))?;
        self.active_len += frame.len() as u64;
        self.writer
            .sync_data()
            .map_err(|e| StoreError::io(format!("sync seg-{}: {e}", self.active)))?;
        self.io.bytes_written += frame.len() as u64;
        self.io.fsyncs += 1;
        self.pending_ops = 0;
        self.pending_bytes = 0;
        self.last_commit = Instant::now();
        Ok(())
    }

    /// Commits when the pending batch crosses a group-commit threshold,
    /// then performs any due maintenance. Called after every write.
    fn after_write(&mut self) -> Result<(), StoreError> {
        if self.pending_ops >= self.cfg.commit_ops
            || self.pending_bytes >= self.cfg.commit_bytes
            || self.last_commit.elapsed() >= self.cfg.commit_interval
        {
            self.commit()?;
            self.maintain()?;
        }
        Ok(())
    }

    /// Rolls an oversized active segment and compacts at most one
    /// mostly-dead sealed segment. Only valid with nothing pending.
    fn maintain(&mut self) -> Result<(), StoreError> {
        if self.active_len >= self.cfg.max_segment_bytes {
            self.roll()?;
        }
        self.compact_one()
    }

    /// Seals the active segment (it already ends on a commit) and starts
    /// the next one: create the file first, then publish it in the
    /// manifest — a crash in between leaves an orphan that open sweeps.
    fn roll(&mut self) -> Result<(), StoreError> {
        let next = self.active + 1;
        let path = seg_path(&self.dir, next);
        let writer = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("create '{}': {e}", path.display())))?;
        writer
            .sync_data()
            .map_err(|e| StoreError::io(format!("sync '{}': {e}", path.display())))?;
        let mut ids: Vec<u64> = self.segments.keys().copied().collect();
        ids.push(next);
        write_manifest(&self.dir, &ids)?;
        self.segments.insert(next, SegmentInfo::default());
        self.active = next;
        self.writer = writer;
        self.active_len = 0;
        Ok(())
    }

    /// Compacts one sealed segment below the liveness threshold, if any:
    /// re-append its live records, commit, then swap the manifest and
    /// delete the file (in that order — see the module docs for the
    /// crash-window argument).
    fn compact_one(&mut self) -> Result<(), StoreError> {
        let victim = self
            .segments
            .iter()
            .filter(|&(&id, _)| id != self.active)
            .find(|&(_, info)| {
                info.records >= self.cfg.compact_min_records
                    && info.live * 100 <= u64::from(self.cfg.compact_live_percent) * info.records
            })
            .map(|(&id, _)| id);
        let Some(victim) = victim else {
            return Ok(());
        };
        let keys: Vec<String> = self
            .index
            .iter()
            .filter(|&(_, loc)| loc.seg == victim)
            .map(|(key, _)| key.clone())
            .collect();
        for key in keys {
            let raw = self
                .read_raw(&key)?
                .ok_or_else(|| StoreError::corrupt(&*key, "index points at a vanished record"))?;
            self.append_put(&key, &raw)?;
        }
        self.commit()?;
        let ids: Vec<u64> = self
            .segments
            .keys()
            .copied()
            .filter(|&id| id != victim)
            .collect();
        write_manifest(&self.dir, &ids)?;
        self.segments.remove(&victim);
        fs::remove_file(seg_path(&self.dir, victim)).ok();
        self.io.compactions += 1;
        Ok(())
    }

    /// Reads a live record's raw bytes straight off its segment.
    fn read_raw(&self, key: &str) -> Result<Option<String>, StoreError> {
        let Some(loc) = self.index.get(key) else {
            return Ok(None);
        };
        let path = seg_path(&self.dir, loc.seg);
        let fail = |e: std::io::Error| StoreError::io(format!("read '{}': {e}", path.display()));
        let mut file = File::open(&path).map_err(fail)?;
        file.seek(SeekFrom::Start(loc.offset)).map_err(fail)?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact(&mut buf).map_err(fail)?;
        String::from_utf8(buf)
            .map(Some)
            .map_err(|_| StoreError::corrupt(key, "record bytes are not utf-8"))
    }
}

impl SnapshotStore for SegmentStore {
    fn put(&mut self, key: &str, record: &Value) -> Result<(), StoreError> {
        check_key(key)?;
        self.append_put(key, &record.to_json())?;
        self.io.puts += 1;
        self.after_write()
    }

    fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
        check_key(key)?;
        match self.read_raw(key)? {
            None => Ok(None),
            Some(raw) => parse_json(&raw)
                .map(Some)
                .map_err(|e| StoreError::corrupt(key, format!("invalid record json: {e}"))),
        }
    }

    fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        check_key(key)?;
        self.io.removes += 1;
        let Some(old) = self.index.remove(key) else {
            return Ok(()); // removing an absent key needs no log entry
        };
        if let Some(info) = self.segments.get_mut(&old.seg) {
            info.live -= 1;
        }
        self.append_frame(&del_frame(key))?;
        self.after_write()
    }

    fn keys(&self) -> Result<Vec<String>, StoreError> {
        Ok(self.index.keys().cloned().collect())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.commit()?;
        self.maintain()
    }

    fn io_stats(&self) -> StoreIoStats {
        self.io
    }
}

impl Drop for SegmentStore {
    /// Best-effort final commit, mirroring the manager's flush-on-drop
    /// contract. A hard kill skips this — that is what recovery is for.
    fn drop(&mut self) {
        let _ = self.commit();
    }
}

/// A cloneable, mutex-serialized handle to one shared [`SegmentStore`] —
/// how every shard worker of one deployment writes the same log. Created
/// by [`SegmentStore::into_shared`].
#[derive(Debug, Clone)]
pub struct SegmentHandle {
    inner: Arc<Mutex<SegmentStore>>,
}

impl SegmentHandle {
    fn lock(&self) -> MutexGuard<'_, SegmentStore> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SnapshotStore for SegmentHandle {
    fn put(&mut self, key: &str, record: &Value) -> Result<(), StoreError> {
        self.lock().put(key, record)
    }

    fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
        self.lock().get(key)
    }

    fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        self.lock().remove(key)
    }

    fn keys(&self) -> Result<Vec<String>, StoreError> {
        self.lock().keys()
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.lock().flush()
    }

    fn io_stats(&self) -> StoreIoStats {
        self.lock().io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("webrobot-segment-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn record(n: i64) -> Value {
        Value::object([("n".to_string(), Value::Int(n))])
    }

    /// A config that never auto-commits, so tests control commit points.
    fn manual() -> SegmentConfig {
        SegmentConfig {
            commit_ops: usize::MAX,
            commit_bytes: u64::MAX,
            commit_interval: Duration::from_secs(3600),
            ..SegmentConfig::default()
        }
    }

    #[test]
    fn recovery_lands_exactly_at_the_last_group_commit() {
        let dir = TempDir::new("group-commit");
        let mut store = SegmentStore::with_config(manual(), dir.path()).unwrap();
        store.put("s-1", &record(1)).unwrap();
        store.put("s-2", &record(2)).unwrap();
        store.flush().unwrap(); // the group commit
        store.put("s-2", &record(99)).unwrap();
        store.put("s-3", &record(3)).unwrap();
        // Reads see the uncommitted writes…
        assert_eq!(store.get("s-2").unwrap(), Some(record(99)));
        // …but a hard kill (no drop) loses exactly the uncommitted tail.
        std::mem::forget(store);
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.get("s-1").unwrap(), Some(record(1)));
        assert_eq!(store.get("s-2").unwrap(), Some(record(2)));
        assert_eq!(store.get("s-3").unwrap(), None);
        assert_eq!(store.keys().unwrap(), vec!["s-1", "s-2"]);
    }

    #[test]
    fn torn_tail_bytes_are_truncated() {
        let dir = TempDir::new("torn");
        let mut store = SegmentStore::with_config(manual(), dir.path()).unwrap();
        store.put("s-1", &record(1)).unwrap();
        store.flush().unwrap();
        std::mem::forget(store);
        // A torn frame: a PUT header promising more bytes than exist.
        let seg = seg_path(dir.path(), 1);
        let mut bytes = fs::read(&seg).unwrap();
        let committed = bytes.len();
        bytes.extend_from_slice(&[TAG_PUT, 0, 0, 0, 3, 0, 0, 1, 0, b's']);
        fs::write(&seg, &bytes).unwrap();
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.get("s-1").unwrap(), Some(record(1)));
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            committed as u64,
            "tail truncated back to the commit"
        );
    }

    #[test]
    fn bit_flip_before_a_commit_is_typed_corruption() {
        let dir = TempDir::new("bitflip");
        let mut store = SegmentStore::with_config(manual(), dir.path()).unwrap();
        store.put("s-1", &record(1)).unwrap();
        store.put("s-2", &record(2)).unwrap();
        store.flush().unwrap();
        std::mem::forget(store);
        let seg = seg_path(dir.path(), 1);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[12] ^= 0x40; // inside the first committed record
        fs::write(&seg, &bytes).unwrap();
        match SegmentStore::open(dir.path()) {
            Err(StoreError::Corrupt { key, .. }) => assert_eq!(key, "seg-1"),
            other => panic!("expected typed corruption, got {other:?}"),
        }
    }

    #[test]
    fn stale_manifest_is_typed_corruption() {
        let dir = TempDir::new("stale-manifest");
        drop(SegmentStore::open(dir.path()).unwrap());
        fs::write(
            dir.path().join(MANIFEST),
            r#"{"v": 1, "kind": "manifest", "segments": [1, 7]}"#,
        )
        .unwrap();
        match SegmentStore::open(dir.path()) {
            Err(StoreError::Corrupt { key, detail }) => {
                assert_eq!(key, "manifest");
                assert!(detail.contains("seg-7"), "{detail}");
            }
            other => panic!("expected typed corruption, got {other:?}"),
        }
        // Garbage manifests are typed too.
        fs::write(dir.path().join(MANIFEST), "}{ not json").unwrap();
        assert_eq!(
            SegmentStore::open(dir.path()).unwrap_err().code(),
            "snapshot_corrupt"
        );
    }

    #[test]
    fn group_commit_batches_by_op_count() {
        let dir = TempDir::new("batch");
        let cfg = SegmentConfig {
            commit_ops: 4,
            ..manual()
        };
        let mut store = SegmentStore::with_config(cfg, dir.path()).unwrap();
        for i in 0..7 {
            store.put(&format!("s-{i}"), &record(i)).unwrap();
        }
        // 7 puts with a batch of 4: one commit has fired, covering the
        // first four; the last three ride in the pending batch.
        std::mem::forget(store);
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.keys().unwrap().len(), 4);
    }

    #[test]
    fn compaction_reclaims_dead_segments() {
        let dir = TempDir::new("compact");
        let cfg = SegmentConfig {
            commit_ops: 1,
            max_segment_bytes: 512,
            compact_min_records: 2,
            compact_live_percent: 50,
            ..SegmentConfig::default()
        };
        let mut store = SegmentStore::with_config(cfg, dir.path()).unwrap();
        // Overwrite two keys many times: every sealed segment ends up
        // mostly dead and gets compacted away.
        for round in 0..64 {
            store.put("s-1", &record(round)).unwrap();
            store.put("s-2", &record(-round)).unwrap();
        }
        store.flush().unwrap();
        assert!(
            store.segment_ids().len() <= 3,
            "dead segments reclaimed, manifest holds {:?}",
            store.segment_ids()
        );
        drop(store);
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.get("s-1").unwrap(), Some(record(63)));
        assert_eq!(store.get("s-2").unwrap(), Some(record(-63)));
        assert_eq!(store.keys().unwrap(), vec!["s-1", "s-2"]);
    }

    #[test]
    fn record_file_layout_migrates_in_place() {
        let dir = TempDir::new("migrate");
        for (key, n) in [("s-1", 1), ("s-2", 2), ("shard-1-of-1", 0)] {
            fs::write(dir.path().join(format!("{key}.json")), record(n).to_json()).unwrap();
        }
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.get("s-1").unwrap(), Some(record(1)));
        assert_eq!(store.get("s-2").unwrap(), Some(record(2)));
        assert_eq!(store.keys().unwrap(), vec!["s-1", "s-2", "shard-1-of-1"]);
        assert!(
            !dir.path().join("s-1.json").exists(),
            "legacy records removed after the committed import"
        );
        // The migrated log round-trips across another reopen.
        drop(store);
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.get("shard-1-of-1").unwrap(), Some(record(0)));
    }

    #[test]
    fn corrupt_legacy_records_fail_migration_typed() {
        let dir = TempDir::new("migrate-bad");
        fs::write(dir.path().join("s-1.json"), "{\"truncated\":").unwrap();
        match SegmentStore::open(dir.path()) {
            Err(StoreError::Corrupt { key, .. }) => assert_eq!(key, "s-1"),
            other => panic!("expected typed corruption, got {other:?}"),
        }
        assert!(
            dir.path().join("s-1.json").exists(),
            "failed migration leaves the legacy file untouched"
        );
    }

    #[test]
    fn shared_handles_serialize_one_log() {
        let dir = TempDir::new("shared");
        let store = SegmentStore::open(dir.path()).unwrap();
        let mut a = store.into_shared();
        let mut b = a.clone();
        a.put("s-1", &record(1)).unwrap();
        b.put("s-2", &record(2)).unwrap();
        assert_eq!(a.get("s-2").unwrap(), Some(record(2)));
        a.flush().unwrap();
        drop(a);
        drop(b);
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.keys().unwrap(), vec!["s-1", "s-2"]);
    }

    #[test]
    fn removes_survive_reopen() {
        let dir = TempDir::new("removes");
        let mut store = SegmentStore::with_config(manual(), dir.path()).unwrap();
        store.put("s-1", &record(1)).unwrap();
        store.put("s-2", &record(2)).unwrap();
        store.remove("s-1").unwrap();
        store.remove("s-1").unwrap(); // idempotent
        store.flush().unwrap();
        drop(store);
        let store = SegmentStore::open(dir.path()).unwrap();
        assert_eq!(store.get("s-1").unwrap(), None);
        assert_eq!(store.keys().unwrap(), vec!["s-2"]);
    }
}
