//! Persistent snapshot stores: the durability substrate sessions are
//! spilled to.
//!
//! A [`SnapshotStore`] is a tiny keyed record store over the wire JSON
//! subset ([`webrobot_data::Value`]): the `webrobot_service` crate spills
//! serialized session snapshots into it on eviction, flushes live
//! sessions on `checkpoint`, and a manager opened over a non-empty store
//! adopts the session keys the store already holds, reading each record
//! on its session's first touch — that is how a whole manager survives a
//! process restart (see `PROTOCOL.md` § Durability and
//! `tests/persistence.rs`).
//!
//! Two implementations ship:
//!
//! - [`SegmentStore`] — the log-structured store: an append-only segment
//!   log with length+checksum framing, **group commit** (batched fsync),
//!   a manifest of live segments, and compaction of mostly-dead segments;
//! - [`MemoryStore`] — an in-process map, for tests and for deployments
//!   that want checkpoint semantics without a filesystem.
//!
//! The layout is **shard-count-stable**: records are keyed by session id
//! only, so the same directory serves a `SessionManager` or a
//! `ShardedManager` at any shard count, each shard adopting exactly the
//! ids it owns.
//!
//! Every failure mode is a typed [`StoreError`] — tampered or truncated
//! records surface as `snapshot_corrupt` wire errors, never panics.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use webrobot_data::{parse_json, Value};

mod segment;

pub use segment::{SegmentConfig, SegmentHandle, SegmentStore};

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying medium failed (I/O error, invalid key, unwritable
    /// directory).
    Io {
        /// Human-readable detail.
        detail: String,
    },
    /// A record exists but cannot be decoded (truncated file, tampered
    /// JSON, wrong shape or version).
    Corrupt {
        /// The record's key.
        key: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl StoreError {
    /// Builds an [`StoreError::Io`] from a detail message.
    pub fn io(detail: impl Into<String>) -> StoreError {
        StoreError::Io {
            detail: detail.into(),
        }
    }

    /// Builds a [`StoreError::Corrupt`] for `key` from a detail message.
    pub fn corrupt(key: impl Into<String>, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            key: key.into(),
            detail: detail.into(),
        }
    }

    /// Stable machine-readable error code (the wire protocol's
    /// `error.code` field): `store_io` or `snapshot_corrupt`.
    pub fn code(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "store_io",
            StoreError::Corrupt { .. } => "snapshot_corrupt",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { detail } => write!(f, "snapshot store i/o failure: {detail}"),
            StoreError::Corrupt { key, detail } => {
                write!(f, "store record '{key}' is corrupt: {detail}")
            }
        }
    }
}

impl Error for StoreError {}

/// Cumulative I/O totals a [`SnapshotStore`] has performed since it was
/// opened. Scraped by the service's observability layer into per-shard
/// gauges; stores that do not track I/O report the all-zero default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Successful `put` calls.
    pub puts: u64,
    /// Successful `remove` calls.
    pub removes: u64,
    /// Serialized record bytes handed to the medium by `put` (and, for a
    /// log-structured store, tombstones and rewrites).
    pub bytes_written: u64,
    /// Durability syncs issued (`fsync`/`fdatasync`); 0 for stores whose
    /// writes are synchronous or in-memory.
    pub fsyncs: u64,
    /// Segment compactions completed; 0 for non-log stores.
    pub compactions: u64,
}

/// A keyed, durable record store for serialized session snapshots and
/// manager metadata.
///
/// Keys are short identifiers (`s-<n>` for sessions, `shard-<k>-of-<n>`
/// for manager metadata); values are records in the wire JSON subset.
/// Implementations must be `Send + Sync` (a store rides inside its
/// manager, which moves onto — and is shared behind — shard worker
/// threads; mutation goes through `&mut self`, so `Sync` costs an
/// implementation nothing) and total: every failure is a [`StoreError`],
/// never a panic.
pub trait SnapshotStore: fmt::Debug + Send + Sync {
    /// Writes (or replaces) one record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium rejects the write, the key is
    /// not a valid store key, or the record is larger than the store can
    /// read back.
    fn put(&mut self, key: &str, record: &Value) -> Result<(), StoreError>;

    /// Reads one record; `Ok(None)` when the key is absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the record exists but does not parse;
    /// [`StoreError::Io`] when the medium fails.
    fn get(&self, key: &str) -> Result<Option<Value>, StoreError>;

    /// Deletes one record. Deleting an absent key succeeds.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium rejects the delete.
    fn remove(&mut self, key: &str) -> Result<(), StoreError>;

    /// Every key currently in the store, sorted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium cannot be enumerated.
    fn keys(&self) -> Result<Vec<String>, StoreError>;

    /// Makes every write accepted so far durable.
    ///
    /// Stores whose `put` is already as durable as they get
    /// ([`MemoryStore`]) use this default no-op; a group-committing store
    /// ([`SegmentStore`]) forces its pending batch to disk. The manager
    /// calls this at the end of every `checkpoint`, so "checkpoint
    /// replied ok" always means "on disk".
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium rejects the sync.
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Cumulative I/O totals since the store was opened.
    ///
    /// The default reports all zeros, so minimal test doubles need not
    /// track anything; the shipped stores override it.
    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats::default()
    }
}

/// The longest valid store key, in bytes. Keys are short ids; a
/// [`SegmentStore`]'s recovery scan rejects a longer one as corrupt.
const MAX_KEY: usize = 4096;

/// Store keys are short ids, so restrict them to a safe alphabet (no
/// separators, no leading dot — a key can never name a path or a hidden
/// file) and to [`MAX_KEY`] bytes.
fn check_key(key: &str) -> Result<(), StoreError> {
    if key.len() > MAX_KEY {
        return Err(StoreError::io(format!(
            "store key of {} bytes exceeds {MAX_KEY}",
            key.len()
        )));
    }
    let valid = !key.is_empty()
        && !key.starts_with('.')
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.');
    if valid {
        Ok(())
    } else {
        Err(StoreError::io(format!("invalid store key '{key}'")))
    }
}

/// An in-process [`SnapshotStore`]: records live in a map for the life of
/// the process.
///
/// Records are kept in their serialized form (exactly the bytes a
/// [`SegmentStore`] frames on disk), so the two implementations share
/// byte-level behavior — including the ability to hold a corrupt record,
/// which [`MemoryStore::insert_raw`] exists to inject for tests.
#[derive(Debug, Default)]
pub struct MemoryStore {
    records: BTreeMap<String, String>,
    io: StoreIoStats,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// How many records the store holds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Inserts a raw serialized record verbatim — the moral equivalent of
    /// editing a stored record by hand. Exists so tests can prove that
    /// tampered records surface as typed [`StoreError::Corrupt`] failures
    /// rather than panics.
    pub fn insert_raw(&mut self, key: impl Into<String>, raw: impl Into<String>) {
        self.records.insert(key.into(), raw.into());
    }
}

impl SnapshotStore for MemoryStore {
    fn put(&mut self, key: &str, record: &Value) -> Result<(), StoreError> {
        check_key(key)?;
        let raw = record.to_json();
        self.io.puts += 1;
        self.io.bytes_written += raw.len() as u64;
        self.records.insert(key.to_string(), raw);
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
        match self.records.get(key) {
            None => Ok(None),
            Some(raw) => parse_json(raw)
                .map(Some)
                .map_err(|e| StoreError::corrupt(key, format!("invalid record json: {e}"))),
        }
    }

    fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        self.records.remove(key);
        self.io.removes += 1;
        Ok(())
    }

    fn keys(&self) -> Result<Vec<String>, StoreError> {
        Ok(self.records.keys().cloned().collect())
    }

    fn io_stats(&self) -> StoreIoStats {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: i64) -> Value {
        Value::object([("n".to_string(), Value::Int(n))])
    }

    fn exercise(store: &mut dyn SnapshotStore) {
        assert_eq!(store.get("s-1").unwrap(), None);
        store.put("s-1", &record(1)).unwrap();
        store.put("s-2", &record(2)).unwrap();
        store.put("shard-1-of-1", &record(0)).unwrap();
        assert_eq!(store.get("s-1").unwrap(), Some(record(1)));
        assert_eq!(
            store.keys().unwrap(),
            vec!["s-1", "s-2", "shard-1-of-1"],
            "sorted keys"
        );
        // Overwrite, then delete (idempotently).
        store.put("s-1", &record(7)).unwrap();
        assert_eq!(store.get("s-1").unwrap(), Some(record(7)));
        store.remove("s-1").unwrap();
        store.remove("s-1").unwrap();
        assert_eq!(store.get("s-1").unwrap(), None);
        // Hostile keys are typed errors, not path escapes.
        let too_long = "k".repeat(MAX_KEY + 1);
        for bad in ["", "..", "a/b", "a\\b", ".hidden", "s 1", &too_long] {
            assert!(matches!(
                store.put(bad, &record(0)),
                Err(StoreError::Io { .. })
            ));
        }
        store.flush().unwrap();
        let io = store.io_stats();
        assert_eq!(io.puts, 4, "three keys plus one overwrite");
        assert_eq!(io.removes, 2, "idempotent remove still counts the call");
        assert!(io.bytes_written > 0);
    }

    #[test]
    fn memory_store_round_trips() {
        let mut store = MemoryStore::new();
        exercise(&mut store);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn segment_store_round_trips() {
        let dir = std::env::temp_dir().join(format!("webrobot-store-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SegmentStore::open(&dir).unwrap();
        exercise(&mut store);
        // A reopen from the log sees exactly the flushed records.
        drop(store);
        let reopened = SegmentStore::open(&dir).unwrap();
        assert_eq!(reopened.get("s-2").unwrap(), Some(record(2)));
        assert_eq!(reopened.keys().unwrap(), vec!["s-2", "shard-1-of-1"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_typed_errors() {
        let mut store = MemoryStore::new();
        store.insert_raw("s-1", "{\"truncated\":");
        let err = store.get("s-1").unwrap_err();
        assert_eq!(err.code(), "snapshot_corrupt");
        assert!(err.to_string().contains("s-1"));
    }
}
