//! Persistent snapshot stores — re-exported from the dedicated
//! [`webrobot_store`] crate.
//!
//! The durability substrate grew into its own subsystem (the
//! log-structured [`SegmentStore`] with group commit and compaction, and
//! the in-process [`MemoryStore`]); this module keeps the service crate's
//! historical paths working and pins the contract the manager relies on:
//! every failure is a typed [`StoreError`] (`store_io` /
//! `snapshot_corrupt`), never a panic, and [`SnapshotStore::flush`] makes
//! everything accepted so far durable — the manager calls it at the end
//! of every `checkpoint`.

pub use webrobot_store::{
    MemoryStore, SegmentConfig, SegmentHandle, SegmentStore, SnapshotStore, StoreError,
};
