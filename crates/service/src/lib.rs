//! The multi-tenant session service: many concurrent demo→authorize→
//! automate sessions behind a versioned, non-panicking, string-in/
//! string-out wire protocol.
//!
//! The paper's interaction model (§2, §6, Fig. 3) is single-user by
//! construction: one `Session`, one browser, one synthesizer. This crate
//! is the layer that turns it into a *served* capability:
//!
//! - [`SessionManager`] owns many [`webrobot_interact::Session`]s keyed by
//!   generated [`SessionId`]s, applies per-session synthesis deadlines,
//!   evicts least-recently-used sessions to compact
//!   [`webrobot_interact::SessionSnapshot`]s (restoring them transparently
//!   on their next event), and aggregates [`StatsV2`] counters;
//! - [`Request`] / [`Response`] are the v1 wire protocol — JSON within the
//!   paper's own data grammar, serialized via `webrobot_data` (no new
//!   dependencies), fully documented in `PROTOCOL.md`;
//! - [`SessionManager::handle_json`] is the transport-agnostic service
//!   boundary: a browser extension, an HTTP server, or
//!   `examples/service_loop.rs` feed request strings in and get response
//!   strings back;
//! - [`ShardedManager`] scales the same boundary across threads: N shard
//!   workers each own a plain `SessionManager`, sessions are pinned to a
//!   shard by id, and `handle_json` takes `&self` so concurrent front-end
//!   threads drive disjoint sessions in parallel (see the module docs of
//!   [`sharded`](ShardedManager) for the routing guarantee).
//!
//! Every entry point is *total*: malformed JSON, unknown sessions,
//! out-of-range accepts, events after `finish` — all are typed error
//! responses, never panics.
//!
//! Sessions are also *durable*: attach a [`SnapshotStore`] (the
//! log-structured [`SegmentStore`], or the in-memory [`MemoryStore`]) via
//! [`SessionManager::with_store`] / [`ShardedManager::with_stores`] and
//! evictions spill serialized snapshots into it, `checkpoint` (and drop)
//! flush live sessions, and reopening the store resumes every session —
//! the whole manager survives a process restart byte-identically on the
//! wire (see `PROTOCOL.md` § Durability, `ARCHITECTURE.md` for the
//! session lifecycle, and `examples/durable_service.rs` for a simulated
//! restart).
//!
//! # Quickstart
//!
//! ```
//! # use std::sync::Arc;
//! # use webrobot_browser::SiteBuilder;
//! # use webrobot_dom::parse_html;
//! # use webrobot_lang::Value;
//! use webrobot_service::{ServiceConfig, SessionManager};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SiteBuilder::new();
//! let home = b.add_page("https://x.test/", parse_html(
//!     "<html><a>1</a><a>2</a><a>3</a><a>4</a></html>")?);
//! let mut manager = SessionManager::new(ServiceConfig::default());
//! manager.register_site("anchors", Arc::new(b.start_at(home).finish()),
//!     Value::Object(vec![]));
//!
//! // The whole workflow is strings: demonstrate two scrapes...
//! manager.handle_json(r#"{"v": 1, "kind": "create", "site": "anchors"}"#);
//! for i in 1..=2 {
//!     let reply = manager.handle_json(&format!(
//!         r#"{{"v": 1, "kind": "event", "session": "s-1", "event":
//!            {{"type": "demonstrate", "action":
//!            {{"op": "scrape_text", "selector": "/a[{i}]"}}}}}}"#));
//!     assert!(reply.contains(r#""status":"ok""#), "{reply}");
//! }
//! // ...and the engine now predicts the third.
//! let reply = manager.handle_json(
//!     r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 0}}"#);
//! assert!(reply.contains(r#""outputs":3"#), "{reply}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod manager;
mod persist;
mod protocol;
mod sharded;
mod stats;
mod store;

pub use config::{ConfigError, ServiceConfig, ServiceConfigBuilder};
pub use manager::{ServiceError, SessionId, SessionManager};
pub use persist::{
    decode_meta, decode_session, encode_meta, encode_session, ManagerMeta, SessionRecord,
    STORE_VERSION,
};
pub use protocol::{
    action_from_value, action_to_value, event_from_value, event_to_value, ProtocolError, Request,
    Response, PROTOCOL_VERSION,
};
pub use sharded::ShardedManager;
pub use stats::{EventCounters, ResidencyCounters, SessionCounters, StatsV2};
pub use store::{
    MemoryStore, SegmentConfig, SegmentHandle, SegmentStore, SnapshotStore, StoreError,
};
pub use webrobot_metrics::{
    bucket_bound, HistogramSnapshot, Metrics, MetricsSnapshot, RequestKind, RequestStats,
    ShardGaugesSnapshot, METRICS_VERSION,
};
