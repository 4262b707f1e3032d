//! The multi-tenant session manager: many concurrent [`Session`]s keyed by
//! generated [`SessionId`], with LRU/idle eviction backed by
//! [`SessionSnapshot`]s, an optional persistent [`SnapshotStore`] behind
//! the evictions (so a manager survives a process restart), and aggregate
//! [`StatsV2`] counters.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use webrobot_browser::{Output, Site};
use webrobot_data::Value;
use webrobot_interact::{Event, Mode, Session, SessionError, SessionSnapshot, StepOutcome};
use webrobot_lang::Action;
use webrobot_metrics::{Metrics, RequestKind};

use crate::config::ServiceConfig;
use crate::persist::{self, ManagerMeta};
use crate::protocol::{self, Request, Response};
use crate::stats::StatsV2;
use crate::store::{SnapshotStore, StoreError};

/// The largest session id a manager will adopt from a store. Ids are
/// issued densely from 1, so nothing legitimate comes near this; the cap
/// keeps every id — and the metadata record's `next_id` cursor — safely
/// representable in the wire format's `i64`.
const MAX_SESSION_ID: u64 = 1 << 62;

/// Opaque identifier of a managed session. Rendered as `s-<n>` on the
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id (`s-<n>` → `n`, always ≥ 1) — what shard
    /// routing hashes on.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s-{}", self.0)
    }
}

impl FromStr for SessionId {
    type Err = ();

    fn from_str(s: &str) -> Result<SessionId, ()> {
        let id = s
            .strip_prefix("s-")
            .and_then(|n| n.parse().ok())
            .map(SessionId)
            .ok_or(())?;
        // Only the canonical spelling is an id: "s-007"/"s-+7" must not
        // alias "s-7", or responses echoing the client's raw string would
        // stop correlating with the id the session was issued under.
        if id.to_string() == s {
            Ok(id)
        } else {
            Err(())
        }
    }
}

/// Why the service rejected an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// `create` referenced a site name that was never registered.
    UnknownSite(String),
    /// The request referenced a session this manager does not know.
    UnknownSession(String),
    /// `create` would exceed [`ServiceConfig::max_sessions`].
    TooManySessions {
        /// The configured cap.
        max: usize,
    },
    /// The session itself rejected the event.
    Session(SessionError),
    /// `checkpoint`/`recover` was requested but the manager has no
    /// [`SnapshotStore`] attached.
    NoStore,
    /// The snapshot store failed (I/O error, or a tampered/truncated
    /// record).
    Store(StoreError),
    /// The target shard's bounded job queue is full
    /// ([`ServiceConfig::max_queued_per_shard`]); the client should back
    /// off and retry. Raised by
    /// [`ShardedManager`](crate::ShardedManager) — a single-threaded
    /// manager applies backpressure through its caller instead.
    Overloaded,
}

impl ServiceError {
    /// Stable machine-readable error code (the wire protocol's
    /// `error.code` field).
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownSite(_) => "unknown_site",
            ServiceError::UnknownSession(_) => "unknown_session",
            ServiceError::TooManySessions { .. } => "too_many_sessions",
            ServiceError::Session(e) => e.code(),
            ServiceError::NoStore => "no_store",
            ServiceError::Store(e) => e.code(),
            ServiceError::Overloaded => "overloaded",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSite(name) => write!(f, "no site registered as '{name}'"),
            ServiceError::UnknownSession(id) => write!(f, "no session '{id}'"),
            ServiceError::TooManySessions { max } => {
                write!(f, "session cap reached ({max} sessions)")
            }
            ServiceError::Session(e) => e.fmt(f),
            ServiceError::NoStore => write!(f, "no snapshot store is attached to this manager"),
            ServiceError::Store(e) => e.fmt(f),
            ServiceError::Overloaded => {
                write!(f, "shard queue is full; back off and retry")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Session(e) => Some(e),
            ServiceError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for ServiceError {
    fn from(e: SessionError) -> ServiceError {
        ServiceError::Session(e)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> ServiceError {
        ServiceError::Store(e)
    }
}

/// What one dispatched event did, plus the session state a front-end
/// needs to render its next screen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventReply {
    /// What the step did.
    pub outcome: StepOutcome,
    /// The session's mode after the event.
    pub mode: Mode,
    /// Current predictions, best first.
    pub predictions: Vec<Action>,
    /// How many outputs the session has scraped so far.
    pub outputs: usize,
}

/// A site a front-end can open sessions on, with its default data source.
#[derive(Debug, Clone)]
struct RegisteredSite {
    site: Arc<Site>,
    input: Value,
}

/// One tracked session plus the bookkeeping the persistence layer needs:
/// the site *name* it was created under and its `deadline_ms` override
/// (a store record carries both, so a reopened manager can rebuild the
/// session config from its own template).
#[derive(Debug)]
struct Tracked {
    site: String,
    deadline_ms: Option<u64>,
    slot: Slot,
    /// `true` while the session's state has diverged from the record the
    /// store holds for it: set on create and on every successful event,
    /// cleared when a snapshot record reaches the store (checkpoint or
    /// eviction spill). `checkpoint` skips clean sessions, which is what
    /// makes the periodic flush O(dirty) rather than O(live).
    dirty: bool,
}

/// A tracked session's state: live (boxed — a live session is orders of
/// magnitude larger than a snapshot), evicted to a compact in-memory
/// snapshot, or — after a store reopen — persisted as a raw store record
/// that is decoded and restored on first touch (sites are registered
/// after construction, so resolution must be deferred).
#[derive(Debug)]
enum Slot {
    Live {
        session: Box<Session>,
        last_used: u64,
    },
    Evicted {
        snapshot: Box<SessionSnapshot>,
    },
    Stored {
        raw: Value,
    },
}

/// Owns many concurrent [`Session`]s behind the v1 wire protocol.
///
/// The manager is the string-in/string-out boundary a browser-extension
/// front-end (or `examples/service_loop.rs`) drives: feed it request JSON
/// via [`SessionManager::handle_json`], get response JSON back. Every
/// request is total — malformed input, unknown sessions, out-of-range
/// accepts and events after `finish` all come back as typed error
/// responses, never a panic.
///
/// Sessions beyond [`ServiceConfig::max_live_sessions`] are evicted
/// least-recently-used to [`SessionSnapshot`]s and restored on demand, so
/// a manager can track far more sessions than it keeps hot.
///
/// # Example
///
/// ```
/// # use std::sync::Arc;
/// # use webrobot_browser::SiteBuilder;
/// # use webrobot_dom::parse_html;
/// # use webrobot_service::{SessionManager, ServiceConfig};
/// # use webrobot_lang::Value;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SiteBuilder::new();
/// let home = b.add_page("https://x.test/", parse_html(
///     "<html><a>1</a><a>2</a><a>3</a></html>")?);
/// let mut manager = SessionManager::new(ServiceConfig::default());
/// manager.register_site("anchors", Arc::new(b.start_at(home).finish()),
///     Value::Object(vec![]));
///
/// let reply = manager.handle_json(r#"{"v": 1, "kind": "create", "site": "anchors"}"#);
/// assert!(reply.contains(r#""status":"ok""#), "{reply}");
/// let reply = manager.handle_json(
///     r#"{"v": 1, "kind": "event", "session": "s-1", "event":
///        {"type": "demonstrate", "action": {"op": "scrape_text", "selector": "/a[1]"}}}"#,
/// );
/// assert!(reply.contains(r#""outcome":"recorded""#), "{reply}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionManager {
    cfg: ServiceConfig,
    sites: BTreeMap<String, RegisteredSite>,
    sessions: BTreeMap<u64, Tracked>,
    /// Count of `Slot::Live` entries, maintained at every live↔evicted
    /// transition so the per-event capacity check is O(1) instead of a
    /// full map scan.
    live: usize,
    next_id: u64,
    /// The first id this manager was configured to issue — fixed at
    /// construction, it names the manager's residue class
    /// (`id ≡ id_first mod id_stride`) and therefore its metadata record
    /// key in the store.
    id_first: u64,
    /// Distance between consecutively issued ids (1 standalone; the shard
    /// count when this manager is one shard of a `ShardedManager`, so the
    /// shards jointly issue the same `s-1, s-2, …` sequence a single
    /// manager would).
    id_stride: u64,
    clock: u64,
    stats: StatsV2,
    /// The observability registry this manager records into. A standalone
    /// manager owns a single-shard registry and records its own requests;
    /// a shard of a [`ShardedManager`](crate::ShardedManager) shares the
    /// front end's registry (see [`SessionManager::attach_metrics`]) and
    /// leaves request accounting to the front end, recording only its
    /// lifecycle events (evict/restore/checkpoint) and gauges.
    metrics: Arc<Metrics>,
    /// Which gauge slot in `metrics` this manager owns.
    metrics_shard: usize,
    /// Whether `handle`/`handle_json` record request counters/latency
    /// here (false when a sharded front end records at its boundary, so
    /// requests are never double-counted).
    record_requests: bool,
    /// The durability substrate, when attached: evictions spill serialized
    /// snapshots into it, `checkpoint`/`Drop` flush everything, and the
    /// constructor adopts whatever the store already holds.
    store: Option<Box<dyn SnapshotStore>>,
    /// Session records whose best-effort store removal (on `close`)
    /// failed; `checkpoint` retries exactly these — and only these, so
    /// records this manager never wrote (e.g. a hand-off from another
    /// process awaiting `recover`) are never touched. The queue is
    /// in-memory: a hard kill before a successful retry leaves the stale
    /// record in the store, and the session resurrects on reopen (the
    /// one double-failure window the durability contract accepts; see
    /// `close`).
    pending_removals: Vec<u64>,
}

// A plain manager is single-threaded by design; what sharding needs is
// that a whole manager (every session, browser, synthesizer, snapshot it
// owns) can be *moved onto* a worker thread. Compile-time enforced so the
// `Rc`→`Arc` refactor underneath can never silently regress.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionManager>();
};

impl SessionManager {
    /// Creates an empty manager with no durability (sessions die with the
    /// process). See [`SessionManager::with_store`] for the durable form.
    pub fn new(cfg: ServiceConfig) -> SessionManager {
        SessionManager {
            cfg,
            sites: BTreeMap::new(),
            sessions: BTreeMap::new(),
            live: 0,
            next_id: 1,
            id_first: 1,
            id_stride: 1,
            clock: 0,
            stats: StatsV2::default(),
            metrics: Arc::new(Metrics::new(1)),
            metrics_shard: 0,
            record_requests: true,
            store: None,
            pending_removals: Vec::new(),
        }
    }

    /// Points this manager at a shared [`Metrics`] registry, owning gauge
    /// slot `shard`. `record_requests` controls whether `handle` records
    /// request counters here — a sharded front end passes `false` and
    /// records at its own boundary instead.
    pub(crate) fn attach_metrics(
        &mut self,
        metrics: Arc<Metrics>,
        shard: usize,
        record_requests: bool,
    ) {
        self.metrics = metrics;
        self.metrics_shard = shard;
        self.record_requests = record_requests;
    }

    /// The observability registry this manager records into. Scrape with
    /// [`Metrics::snapshot`]; the wire form is the `{"kind":"metrics"}`
    /// request.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Creates a manager backed by a persistent [`SnapshotStore`],
    /// **adopting whatever the store already holds**: if the store was
    /// written by a previous process (via eviction spills, an explicit
    /// `checkpoint`, or the flush on drop), the new manager resumes that
    /// manager's id sequence, LRU clock and counters, and tracks every
    /// persisted session — each one is decoded and restored on its first
    /// touch, after the caller re-registers its sites. On an empty store
    /// this is simply a durable [`SessionManager::new`].
    ///
    /// Restart is designed to be unobservable on the wire: a reopened
    /// manager answers session requests byte-identically to one that
    /// never restarted (`tests/persistence.rs` pins this at shard counts
    /// 1, 2 and 4).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the store cannot be enumerated or holds a
    /// record that does not parse as JSON (reopen fails fast on a
    /// corrupt store; a record that parses but decodes to an impossible
    /// session surfaces later, as a typed per-session wire error).
    pub fn with_store(
        cfg: ServiceConfig,
        store: Box<dyn SnapshotStore>,
    ) -> Result<SessionManager, StoreError> {
        SessionManager::with_store_sequenced(cfg, store, 1, 1)
    }

    /// The sharded form of [`SessionManager::with_store`]: adopt only the
    /// sessions in this shard's residue class and the matching metadata
    /// record.
    pub(crate) fn with_store_sequenced(
        cfg: ServiceConfig,
        store: Box<dyn SnapshotStore>,
        first: u64,
        stride: u64,
    ) -> Result<SessionManager, StoreError> {
        let mut manager = SessionManager::new(cfg).with_id_sequence(first, stride);
        manager.store = Some(store);
        if let Some(raw) = manager.store.as_ref().unwrap().get(&manager.meta_key())? {
            let meta = persist::decode_meta(&raw)
                .map_err(|detail| StoreError::corrupt(manager.meta_key(), detail))?;
            // A next_id outside this manager's residue class would make
            // two shards issue colliding (and mis-routing) ids: reject a
            // tampered cursor instead of adopting it.
            if meta.next_id % manager.id_stride != first % manager.id_stride {
                return Err(StoreError::corrupt(
                    manager.meta_key(),
                    format!(
                        "next_id {} is not in the id sequence {first}, {}, …",
                        meta.next_id,
                        first + stride
                    ),
                ));
            }
            // Same bound as adopted session ids: a cursor past this
            // could issue ids the (i64-valued) meta record cannot
            // round-trip, locking the store out on the reopen after.
            if meta.next_id > MAX_SESSION_ID {
                return Err(StoreError::corrupt(
                    manager.meta_key(),
                    format!("next_id {} exceeds the id space", meta.next_id),
                ));
            }
            manager.next_id = meta.next_id.max(manager.next_id);
            manager.clock = meta.clock;
            manager.stats = meta.stats;
        }
        manager.adopt_sessions()?;
        Ok(manager)
    }

    /// Reconfigures the id sequence to `first, first + stride, …` —
    /// how [`ShardedManager`](crate::ShardedManager) arranges for shard
    /// `k` of `n` to issue exactly the ids `k+1, k+1+n, …`, keeping the
    /// interleaved global sequence identical to a single manager's.
    pub(crate) fn with_id_sequence(mut self, first: u64, stride: u64) -> SessionManager {
        debug_assert!(first >= 1 && stride >= 1);
        self.next_id = first;
        self.id_first = first;
        self.id_stride = stride.max(1);
        self
    }

    /// Registers a site under `name` with its default data source, so
    /// `create` requests can reference it by name over the wire.
    /// Re-registering a name replaces the previous entry (existing
    /// sessions keep their own `Arc<Site>` handle).
    pub fn register_site(&mut self, name: impl Into<String>, site: Arc<Site>, input: Value) {
        self.sites
            .insert(name.into(), RegisteredSite { site, input });
    }

    /// The names `create` currently accepts.
    pub fn site_names(&self) -> impl Iterator<Item = &str> {
        self.sites.keys().map(String::as_str)
    }

    /// Opens a session on a registered site.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSite`] for an unregistered name,
    /// [`ServiceError::TooManySessions`] at the session cap.
    pub fn create(
        &mut self,
        site: &str,
        input: Option<Value>,
        deadline: Option<Duration>,
    ) -> Result<SessionId, ServiceError> {
        if self.sessions.len() >= self.cfg.max_sessions {
            return Err(ServiceError::TooManySessions {
                max: self.cfg.max_sessions,
            });
        }
        let registered = self
            .sites
            .get(site)
            .ok_or_else(|| ServiceError::UnknownSite(site.to_string()))?;
        let mut session_cfg = self.cfg.session.clone();
        if let Some(deadline) = deadline {
            session_cfg.synth.timeout = deadline;
        }
        let session = Session::new(
            registered.site.clone(),
            input.unwrap_or_else(|| registered.input.clone()),
            session_cfg,
        );
        let id = SessionId(self.next_id);
        // Unreachable short of an adopted id near u64::MAX saturating the
        // cursor: never silently overwrite an existing session.
        if self.sessions.contains_key(&id.0) {
            return Err(ServiceError::TooManySessions {
                max: self.cfg.max_sessions,
            });
        }
        self.next_id = self.next_id.saturating_add(self.id_stride);
        self.clock += 1;
        self.sessions.insert(
            id.0,
            Tracked {
                site: site.to_string(),
                // Persistence is millisecond-granular (the wire unit);
                // round a sub-millisecond deadline up, never down to a
                // zero timeout.
                deadline_ms: deadline.map(|d| d.as_nanos().div_ceil(1_000_000) as u64),
                slot: Slot::Live {
                    session: Box::new(session),
                    last_used: self.clock,
                },
                dirty: true,
            },
        );
        self.live += 1;
        self.stats.sessions.created += 1;
        self.enforce_live_capacity(Some(id.0));
        Ok(id)
    }

    /// Dispatches one event to a session, transparently restoring it from
    /// its snapshot if it was evicted.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for an untracked id; otherwise
    /// whatever the session's own state machine rejects (wrapped
    /// [`SessionError`]).
    pub fn dispatch(&mut self, id: SessionId, event: Event) -> Result<EventReply, ServiceError> {
        self.ensure_live(id)?;
        // Enforce the live cap up front so a restore that displaced the
        // cap holds even when the event itself is rejected below.
        self.enforce_live_capacity(Some(id.0));
        let Some(tracked) = self.sessions.get_mut(&id.0) else {
            return Err(ServiceError::UnknownSession(id.to_string()));
        };
        let Slot::Live { session, .. } = &mut tracked.slot else {
            return Err(ServiceError::UnknownSession(id.to_string()));
        };
        let result = session.handle(event);
        let reply = match result {
            Ok(outcome) => EventReply {
                outcome,
                mode: session.mode(),
                predictions: session.predictions().to_vec(),
                outputs: session.browser().outputs().len(),
            },
            Err(e) => {
                self.stats.events.rejected += 1;
                return Err(ServiceError::Session(e));
            }
        };
        // The session advanced: its store record (if any) is now stale.
        tracked.dirty = true;
        self.stats.events.ok += 1;
        Ok(reply)
    }

    /// Dispatches one `event` request like the `Event` arm of
    /// [`SessionManager::handle`], but bounds the synthesis work to
    /// `budget`. Returns the finished wire response, or `None` when the
    /// session performed the action and parked mid-synthesis — drive it
    /// to completion with [`SessionManager::continue_event_quantum`]
    /// before its next event (the sharded scheduler round-robins these
    /// continuations). Errors always complete immediately, as typed
    /// error responses.
    pub fn handle_event_quantum(
        &mut self,
        session: &str,
        event: Event,
        budget: Duration,
    ) -> Option<Response> {
        let id = match self.parse_id(session) {
            Ok(id) => id,
            Err(e) => return Some(error_response(&e)),
        };
        if let Err(e) = self.ensure_live(id) {
            return Some(error_response(&e));
        }
        self.enforce_live_capacity(Some(id.0));
        let Some(tracked) = self.sessions.get_mut(&id.0) else {
            return Some(error_response(&ServiceError::UnknownSession(
                id.to_string(),
            )));
        };
        let Slot::Live { session: live, .. } = &mut tracked.slot else {
            return Some(error_response(&ServiceError::UnknownSession(
                id.to_string(),
            )));
        };
        match live.handle_quantum(event, budget) {
            Ok(Some(outcome)) => {
                tracked.dirty = true;
                self.stats.events.ok += 1;
                Some(self.event_response(id, outcome))
            }
            Ok(None) => {
                // Parked mid-synthesis, but the action itself already
                // executed — the session has diverged from its record.
                tracked.dirty = true;
                None
            }
            Err(e) => {
                self.stats.events.rejected += 1;
                Some(error_response(&ServiceError::Session(e)))
            }
        }
    }

    /// Continues a parked event with another `budget` of synthesis.
    /// Returns the finished wire response, or `None` if the session
    /// parked again. Only meaningful after
    /// [`SessionManager::handle_event_quantum`] returned `None` for this
    /// session.
    pub fn continue_event_quantum(&mut self, session: &str, budget: Duration) -> Option<Response> {
        let id = match self.parse_id(session) {
            Ok(id) => id,
            Err(e) => return Some(error_response(&e)),
        };
        let Some(tracked) = self.sessions.get_mut(&id.0) else {
            return Some(error_response(&ServiceError::UnknownSession(
                id.to_string(),
            )));
        };
        let Slot::Live { session: live, .. } = &mut tracked.slot else {
            return Some(error_response(&ServiceError::UnknownSession(
                id.to_string(),
            )));
        };
        let outcome = live.continue_quantum(budget)?;
        tracked.dirty = true;
        self.stats.events.ok += 1;
        Some(self.event_response(id, outcome))
    }

    /// `true` while `id` is live with a half-finished quantum step; such
    /// a session cannot be evicted or snapshotted until the step
    /// completes.
    pub fn has_pending_step(&self, id: SessionId) -> bool {
        matches!(
            self.sessions.get(&id.0).map(|t| &t.slot),
            Some(Slot::Live { session, .. }) if session.has_pending()
        )
    }

    /// The wire `event` response for a completed step on session `id`
    /// (shared by the unsliced and the quantum dispatch paths).
    fn event_response(&self, id: SessionId, outcome: StepOutcome) -> Response {
        match self.sessions.get(&id.0) {
            Some(Tracked {
                slot: Slot::Live { session, .. },
                ..
            }) => Response::Event {
                session: id.to_string(),
                outcome,
                mode: session.mode(),
                predictions: session.predictions().to_vec(),
                outputs: session.browser().outputs().len(),
            },
            _ => error_response(&ServiceError::UnknownSession(id.to_string())),
        }
    }

    /// Everything a session has scraped so far (restores it if evicted).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for an untracked id.
    pub fn outputs(&mut self, id: SessionId) -> Result<Vec<Output>, ServiceError> {
        self.ensure_live(id)?;
        self.enforce_live_capacity(Some(id.0));
        match self.sessions.get(&id.0) {
            Some(Tracked {
                slot: Slot::Live { session, .. },
                ..
            }) => Ok(session.browser().outputs().to_vec()),
            _ => Err(ServiceError::UnknownSession(id.to_string())),
        }
    }

    /// Finishes and forgets a session (live, evicted or persisted). When a
    /// store is attached the session's record is removed from it too — a
    /// closed session does not resurrect on the next reopen. (A failed
    /// removal is queued and retried by the next checkpoint; only the
    /// double failure of that removal *and* a hard kill before any retry
    /// can leave a stale record behind.)
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] for an untracked id.
    pub fn close(&mut self, id: SessionId) -> Result<(), ServiceError> {
        match self.sessions.remove(&id.0) {
            Some(mut tracked) => {
                if let Slot::Live { session, .. } = &mut tracked.slot {
                    session.handle(Event::Finish).ok(); // idempotent best effort
                    self.live -= 1;
                }
                if let Some(store) = self.store.as_mut() {
                    // Best effort now; a failure is queued and retried by
                    // the next checkpoint so the closed session cannot
                    // resurrect on a later reopen.
                    if store.remove(&id.to_string()).is_err() {
                        self.pending_removals.push(id.0);
                    }
                }
                self.stats.sessions.closed += 1;
                Ok(())
            }
            None => Err(ServiceError::UnknownSession(id.to_string())),
        }
    }

    /// Evicts one session to its snapshot, releasing its browser and
    /// synthesizer. Returns `false` when the id is unknown or the session
    /// is already evicted. The session transparently restores on its next
    /// event.
    ///
    /// When a store is attached the serialized snapshot of a dirty
    /// session is also spilled to it (best effort — the in-memory
    /// snapshot stays authoritative, and the next `checkpoint` retries any
    /// failed write). The spill is durable only once the store commits it:
    /// at the segment store's next group commit (by default after 8
    /// writes or 256 KiB, or on the first write 25 ms after the last
    /// commit) or at a `checkpoint`. A clean session's record already
    /// holds this state (say, one restored only to answer `outputs`), so
    /// its eviction writes nothing.
    pub fn evict(&mut self, id: SessionId) -> bool {
        let Some(tracked) = self.sessions.get_mut(&id.0) else {
            return false;
        };
        let Slot::Live { session, .. } = &mut tracked.slot else {
            return false;
        };
        if session.has_pending() {
            // A parked quantum step is mid-flight: the action is in the
            // trace but predictions and mode are stale, so a snapshot
            // taken now would not replay to an equivalent session.
            return false;
        }
        let started = Instant::now();
        let snapshot = session.snapshot();
        let record = (self.store.is_some() && tracked.dirty)
            .then(|| persist::encode_session(id.0, &tracked.site, tracked.deadline_ms, &snapshot));
        tracked.slot = Slot::Evicted {
            snapshot: Box::new(snapshot),
        };
        self.live -= 1;
        self.stats.residency.evictions += 1;
        if let (Some(store), Some(record)) = (self.store.as_mut(), record) {
            if store.put(&id.to_string(), &record).is_ok() {
                // The spilled record is exactly the snapshot we now hold:
                // the next checkpoint can skip this session.
                if let Some(tracked) = self.sessions.get_mut(&id.0) {
                    tracked.dirty = false;
                }
            }
        }
        self.metrics.record_evict(started.elapsed());
        true
    }

    /// Evicts every live session not used within the last `max_idle`
    /// manager operations (the logical idle horizon; the manager's clock
    /// ticks once per create/dispatch/outputs). Returns how many sessions
    /// were evicted.
    pub fn evict_idle(&mut self, max_idle: u64) -> usize {
        let horizon = self.clock.saturating_sub(max_idle);
        let idle: Vec<u64> = self
            .sessions
            .iter()
            .filter_map(|(&id, tracked)| match &tracked.slot {
                Slot::Live { session, last_used } if *last_used < horizon => {
                    (!session.has_pending()).then_some(id)
                }
                _ => None,
            })
            .collect();
        let count = idle.len();
        for id in idle {
            self.evict(SessionId(id));
        }
        count
    }

    /// Current aggregate statistics (the `stats` group of the
    /// `{"kind":"metrics"}` wire reply).
    pub fn stats_v2(&self) -> StatsV2 {
        let mut stats = self.stats;
        stats.sessions.live = self.live as u64;
        stats.sessions.evicted = (self.sessions.len() - self.live) as u64;
        stats
    }

    /// Refreshes this manager's gauge slot in the metrics registry:
    /// session residency (live/evicted/dirty) and, when a store is
    /// attached, its cumulative I/O totals. The sharded scheduler calls
    /// this between jobs; the standalone manager on every `metrics`
    /// request.
    pub(crate) fn refresh_gauges(&self) {
        let gauges = self.metrics.shard(self.metrics_shard);
        let dirty = self.sessions.values().filter(|t| t.dirty).count() as u64;
        gauges.set_sessions(
            self.live as u64,
            (self.sessions.len() - self.live) as u64,
            dirty,
        );
        if let Some(store) = self.store.as_ref() {
            let io = store.io_stats();
            gauges.set_store_io(
                io.puts,
                io.removes,
                io.bytes_written,
                io.fsyncs,
                io.compactions,
            );
        }
    }

    /// How many sessions are currently live.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// How many sessions the manager tracks (live + evicted).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Whether `id` is currently cold: evicted to a snapshot, or still a
    /// persisted store record awaiting its first touch after a reopen.
    pub fn is_evicted(&self, id: SessionId) -> bool {
        matches!(
            self.sessions.get(&id.0).map(|t| &t.slot),
            Some(Slot::Evicted { .. } | Slot::Stored { .. })
        )
    }

    /// Whether a [`SnapshotStore`] is attached to this manager.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Flushes the manager to its store: every tracked session's snapshot
    /// record plus the manager metadata (id sequence, LRU clock,
    /// counters), so a process that stops here can be reopened with
    /// [`SessionManager::with_store`] and continue byte-identically. Live
    /// sessions stay live — checkpointing is non-destructive. Returns how
    /// many session records the store now holds for this manager.
    ///
    /// Dropping a store-backed manager checkpoints implicitly; the
    /// explicit form exists on the wire (`{"kind": "checkpoint"}`) so an
    /// operator can bound the data-loss window under hard kills.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoStore`] without a store;
    /// [`ServiceError::Store`] when a write fails (records already
    /// written stay written — the operation is idempotent, re-run it).
    pub fn checkpoint(&mut self) -> Result<usize, ServiceError> {
        let started = Instant::now();
        let Some(store) = self.store.as_mut() else {
            return Err(ServiceError::NoStore);
        };
        // Stream one record at a time — a manager may track thousands of
        // sessions, and buffering every serialized record before the
        // first write would spike memory by the whole serialized state.
        let count = self.sessions.len();
        for (&id, tracked) in &mut self.sessions {
            // A clean session's store record is already current: skip the
            // serialization and the write entirely. This is what makes a
            // steady-state checkpoint O(dirty), not O(live).
            if !tracked.dirty {
                continue;
            }
            let record = match &tracked.slot {
                Slot::Live { session, .. } => persist::encode_session(
                    id,
                    &tracked.site,
                    tracked.deadline_ms,
                    &session.snapshot(),
                ),
                Slot::Evicted { snapshot } => {
                    persist::encode_session(id, &tracked.site, tracked.deadline_ms, snapshot)
                }
                // Never rehydrated since the reopen: the store already
                // holds this exact record; write it through unchanged.
                Slot::Stored { raw } => raw.clone(),
            };
            store.put(&SessionId(id).to_string(), &record)?;
            tracked.dirty = false;
        }
        let meta = persist::encode_meta(&ManagerMeta {
            next_id: self.next_id,
            clock: self.clock,
            stats: self.stats,
        });
        let meta_key = format!("shard-{}-of-{}", self.id_first, self.id_stride);
        store.put(&meta_key, &meta)?;
        // Retry removals whose best-effort delete on `close` failed:
        // exactly the records this manager owes a deletion — never
        // untracked keys it did not write (those may be another
        // process's hand-off awaiting `recover`).
        self.pending_removals
            .retain(|&id| store.remove(&SessionId(id).to_string()).is_err());
        // Group-committing stores defer fsync; "checkpoint replied ok"
        // must always mean "on disk", so force the commit here.
        store.flush()?;
        self.metrics.record_checkpoint(started.elapsed());
        Ok(count)
    }

    /// Adopts sessions from the store that this manager does not yet
    /// track (only ids in its residue class — each shard recovers exactly
    /// the sessions it owns). The constructor does this implicitly; the
    /// explicit form exists on the wire (`{"kind": "recover"}`) for
    /// stores shared with, or written by, another process. Returns how
    /// many sessions were adopted.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoStore`] without a store; [`ServiceError::Store`]
    /// when the store cannot be read.
    pub fn recover(&mut self) -> Result<usize, ServiceError> {
        if self.store.is_none() {
            return Err(ServiceError::NoStore);
        }
        Ok(self.adopt_sessions()?)
    }

    /// Handles one typed request. Never panics: every failure is a
    /// [`Response::Error`].
    pub fn handle(&mut self, request: Request) -> Response {
        if !self.record_requests {
            return self.handle_inner(request);
        }
        let kind = protocol::request_kind(&request);
        let started = Instant::now();
        let response = self.handle_inner(request);
        self.metrics.record_request(
            kind,
            protocol::response_error_code(&response),
            started.elapsed(),
        );
        response
    }

    fn handle_inner(&mut self, request: Request) -> Response {
        match request {
            Request::Create {
                site,
                input,
                deadline_ms,
            } => match self.create(&site, input, deadline_ms.map(Duration::from_millis)) {
                Ok(id) => Response::Created {
                    session: id.to_string(),
                    mode: Mode::Demonstrate,
                },
                Err(e) => error_response(&e),
            },
            Request::Event { session, event } => match self.parse_id(&session) {
                Ok(id) => match self.dispatch(id, event) {
                    Ok(reply) => Response::Event {
                        session,
                        outcome: reply.outcome,
                        mode: reply.mode,
                        predictions: reply.predictions,
                        outputs: reply.outputs,
                    },
                    Err(e) => error_response(&e),
                },
                Err(e) => error_response(&e),
            },
            Request::Outputs { session } => {
                match self.parse_id(&session).and_then(|id| self.outputs(id)) {
                    Ok(outputs) => Response::Outputs { session, outputs },
                    Err(e) => error_response(&e),
                }
            }
            Request::Metrics => {
                self.refresh_gauges();
                self.metrics.shard(self.metrics_shard).set_queue_depth(0);
                Response::Metrics {
                    stats: self.stats_v2(),
                    metrics: Box::new(self.metrics.snapshot()),
                }
            }
            Request::Close { session } => {
                match self.parse_id(&session).and_then(|id| self.close(id)) {
                    Ok(()) => Response::Closed { session },
                    Err(e) => error_response(&e),
                }
            }
            Request::Checkpoint => match self.checkpoint() {
                Ok(sessions) => Response::Checkpointed { sessions },
                Err(e) => error_response(&e),
            },
            Request::Recover => match self.recover() {
                Ok(sessions) => Response::Recovered { sessions },
                Err(e) => error_response(&e),
            },
        }
    }

    /// The string-in/string-out service boundary: decodes a request,
    /// handles it, encodes the response. Total — malformed input comes
    /// back as an error response, never a panic.
    pub fn handle_json(&mut self, request: &str) -> String {
        match Request::from_json(request) {
            Ok(request) => self.handle(request),
            Err(e) => {
                if self.record_requests {
                    self.metrics.record_request(
                        RequestKind::Malformed,
                        Some(e.code()),
                        Duration::ZERO,
                    );
                }
                Response::from(e)
            }
        }
        .to_json()
    }

    // ───────────────────── internals ─────────────────────

    fn parse_id(&self, raw: &str) -> Result<SessionId, ServiceError> {
        raw.parse()
            .map_err(|()| ServiceError::UnknownSession(raw.to_string()))
    }

    /// Restores `id` from its snapshot if evicted (or from its store
    /// record if persisted), and stamps its LRU clock.
    fn ensure_live(&mut self, id: SessionId) -> Result<(), ServiceError> {
        self.clock += 1;
        let clock = self.clock;
        let tracked = self
            .sessions
            .get_mut(&id.0)
            .ok_or_else(|| ServiceError::UnknownSession(id.to_string()))?;
        match &mut tracked.slot {
            Slot::Live { last_used, .. } => {
                *last_used = clock;
                Ok(())
            }
            Slot::Evicted { snapshot } => {
                let started = Instant::now();
                let session = Session::restore(snapshot).map_err(ServiceError::Session)?;
                tracked.slot = Slot::Live {
                    session: Box::new(session),
                    last_used: clock,
                };
                self.live += 1;
                self.stats.residency.restores += 1;
                self.metrics.record_restore(started.elapsed());
                Ok(())
            }
            Slot::Stored { raw } => {
                // First touch after a reopen: decode the record against
                // the *current* site registry and config template, then
                // restore by replay. Rehydration does not bump the
                // `restores` counter — a restart is unobservable on the
                // wire, unlike an eviction cycle, which both the original
                // and the reopened manager count identically.
                let record = persist::decode_session(raw)
                    .map_err(|detail| StoreError::corrupt(id.to_string(), detail))?;
                if record.id != id.0 {
                    return Err(ServiceError::Store(StoreError::corrupt(
                        id.to_string(),
                        format!("record claims to be session 's-{}'", record.id),
                    )));
                }
                let registered = self
                    .sites
                    .get(&record.site)
                    .ok_or_else(|| ServiceError::UnknownSite(record.site.clone()))?;
                let mut session_cfg = self.cfg.session.clone();
                if let Some(ms) = record.deadline_ms {
                    session_cfg.synth.timeout = Duration::from_millis(ms);
                }
                let snapshot = SessionSnapshot {
                    site: registered.site.clone(),
                    input: record.input,
                    cfg: session_cfg,
                    executed: record.executed,
                    mode: record.mode,
                    predictions: record.predictions,
                    consecutive_accepts: record.consecutive_accepts,
                    automated_steps: record.automated_steps,
                    last_program: record.last_program,
                    engine: record.engine,
                };
                let session = Session::restore(&snapshot).map_err(ServiceError::Session)?;
                tracked.site = record.site;
                tracked.deadline_ms = record.deadline_ms;
                tracked.slot = Slot::Live {
                    session: Box::new(session),
                    last_used: clock,
                };
                self.live += 1;
                Ok(())
            }
        }
    }

    /// Evicts least-recently-used live sessions (never `keep`) until the
    /// live count fits [`ServiceConfig::max_live_sessions`].
    fn enforce_live_capacity(&mut self, keep: Option<u64>) {
        while self.live_count() > self.cfg.max_live_sessions.max(1) {
            let lru = self
                .sessions
                .iter()
                .filter_map(|(&id, tracked)| match &tracked.slot {
                    // A parked quantum step pins its session live; evict
                    // would refuse it, and retrying it here would spin.
                    Slot::Live { session, last_used } if Some(id) != keep => {
                        (!session.has_pending()).then_some((*last_used, id))
                    }
                    _ => None,
                })
                .min();
            match lru {
                Some((_, id)) => {
                    self.evict(SessionId(id));
                }
                None => break, // only `keep` is live
            }
        }
    }

    /// The key this manager's metadata record lives under:
    /// `shard-<first>-of-<stride>`. Standalone managers use
    /// `shard-1-of-1`; shard `k` of `N` uses `shard-<k+1>-of-<N>`, so
    /// same-topology reopens find their counters exactly while *session*
    /// records stay shard-count-agnostic.
    fn meta_key(&self) -> String {
        format!("shard-{}-of-{}", self.id_first, self.id_stride)
    }

    /// Adopts every store session record in this manager's residue class
    /// that it does not already track, as lazily-decoded `Stored` slots.
    /// Bumps `next_id` past adopted ids so a store written without a
    /// metadata record (crash before the first checkpoint) can never
    /// hand out a colliding id.
    fn adopt_sessions(&mut self) -> Result<usize, StoreError> {
        let Some(store) = self.store.as_ref() else {
            return Ok(0);
        };
        let mut raws: Vec<(u64, Value)> = Vec::new();
        for key in store.keys()? {
            let Ok(id) = key.parse::<SessionId>() else {
                continue; // metadata records, foreign keys
            };
            if id.0 % self.id_stride != self.id_first % self.id_stride {
                continue; // another shard's session
            }
            // No manager ever issues id 0; under sharding a stored
            // `s-0` would pass shard N-1's residue filter yet route to
            // shard 0 — an unreachable, uncloseable zombie. Hostile by
            // construction: reject it.
            if id.0 == 0 {
                return Err(StoreError::corrupt(key, "session id 0 is never issued"));
            }
            // No manager can legitimately issue an id this large, and
            // adopting one would push the `next_id` cursor past what the
            // (i64-valued) metadata record can represent — locking the
            // whole store out on the next reopen. Reject the hostile
            // file instead.
            if id.0 > MAX_SESSION_ID {
                return Err(StoreError::corrupt(
                    key,
                    format!("session id {} exceeds the id space", id.0),
                ));
            }
            if self.sessions.contains_key(&id.0) {
                continue;
            }
            if self.pending_removals.contains(&id.0) {
                continue; // closed; its failed store removal is pending
            }
            if let Some(raw) = store.get(&key)? {
                raws.push((id.0, raw));
            }
        }
        let adopted = raws.len();
        for (id, raw) in raws {
            // Site/deadline are read authoritatively when the record is
            // decoded on first touch (`ensure_live`); until then a
            // checkpoint writes the raw record through unchanged, so
            // nothing reads these placeholder fields.
            self.sessions.insert(
                id,
                Tracked {
                    site: String::new(),
                    deadline_ms: None,
                    slot: Slot::Stored { raw },
                    // The record we adopted *is* the store's record.
                    dirty: false,
                },
            );
            // Jump the cursor past the adopted id arithmetically (a
            // loop would spin ~id/stride times on a large id).
            if self.next_id <= id {
                let steps = (id - self.next_id) / self.id_stride + 1;
                self.next_id = self
                    .next_id
                    .saturating_add(steps.saturating_mul(self.id_stride));
            }
        }
        Ok(adopted)
    }
}

impl Drop for SessionManager {
    /// A store-backed manager flushes itself on the way out, so a clean
    /// shutdown (including a `ShardedManager` dropping its shard workers)
    /// persists every session without an explicit `checkpoint`. Errors
    /// are swallowed — there is no one left to report them to — which is
    /// exactly why latency-sensitive deployments checkpoint explicitly.
    fn drop(&mut self) {
        // Never checkpoint while unwinding: if the panic came from the
        // store itself, a second panic here would abort the process
        // before a shard's panic guard can mark the shard down.
        if std::thread::panicking() {
            return;
        }
        if self.store.is_some() {
            let _ = self.checkpoint();
        }
    }
}

pub(crate) fn error_response(e: &ServiceError) -> Response {
    Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webrobot_browser::SiteBuilder;
    use webrobot_data::parse_json;
    use webrobot_dom::parse_html;

    fn anchor_site(n: usize) -> Arc<Site> {
        let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
        let mut b = SiteBuilder::new();
        let home = b.add_page(
            "https://anchors.test/",
            parse_html(&format!("<html>{body}</html>")).unwrap(),
        );
        Arc::new(b.start_at(home).finish())
    }

    fn manager(cfg: ServiceConfig) -> SessionManager {
        let mut m = SessionManager::new(cfg);
        m.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        m
    }

    fn scrape(i: usize) -> Event {
        Event::Demonstrate(Action::ScrapeText(format!("/a[{i}]").parse().unwrap()))
    }

    #[test]
    fn session_ids_render_and_parse() {
        let id: SessionId = "s-42".parse().unwrap();
        assert_eq!(id.to_string(), "s-42");
        assert!("42".parse::<SessionId>().is_err());
        assert!("s-".parse::<SessionId>().is_err());
        assert!("s-x".parse::<SessionId>().is_err());
        // Non-canonical spellings must not alias canonical ids.
        assert!("s-007".parse::<SessionId>().is_err());
        assert!("s-+7".parse::<SessionId>().is_err());
        assert!("s- 7".parse::<SessionId>().is_err());
    }

    #[test]
    fn full_workflow_through_the_typed_api() {
        let mut m = manager(ServiceConfig::default());
        let id = m.create("anchors", None, None).unwrap();
        m.dispatch(id, scrape(1)).unwrap();
        let reply = m.dispatch(id, scrape(2)).unwrap();
        assert_eq!(reply.mode, Mode::Authorize);
        assert!(!reply.predictions.is_empty());
        m.dispatch(id, Event::Accept { index: 0 }).unwrap();
        let reply = m.dispatch(id, Event::Accept { index: 0 }).unwrap();
        assert_eq!(reply.mode, Mode::Automate);
        let mut automated = 0;
        loop {
            let reply = m.dispatch(id, Event::AutomateStep).unwrap();
            match reply.outcome {
                StepOutcome::Automated(_) => automated += 1,
                _ => break,
            }
            if reply.mode != Mode::Automate {
                break; // the loop ran off the last item
            }
        }
        assert_eq!(automated, 2);
        assert_eq!(m.outputs(id).unwrap().len(), 6);
        m.close(id).unwrap();
        assert_eq!(
            m.dispatch(id, scrape(1)),
            Err(ServiceError::UnknownSession(id.to_string()))
        );
    }

    #[test]
    fn unknown_site_and_session_are_typed_errors() {
        let mut m = manager(ServiceConfig::default());
        assert_eq!(
            m.create("nope", None, None),
            Err(ServiceError::UnknownSite("nope".to_string()))
        );
        assert_eq!(
            m.dispatch(SessionId(99), Event::Finish),
            Err(ServiceError::UnknownSession("s-99".to_string()))
        );
    }

    #[test]
    fn session_cap_is_enforced() {
        let mut m = manager(ServiceConfig {
            max_sessions: 2,
            ..ServiceConfig::default()
        });
        m.create("anchors", None, None).unwrap();
        m.create("anchors", None, None).unwrap();
        assert_eq!(
            m.create("anchors", None, None),
            Err(ServiceError::TooManySessions { max: 2 })
        );
        // Closing frees a slot.
        m.close(SessionId(1)).unwrap();
        m.create("anchors", None, None).unwrap();
    }

    #[test]
    fn lru_eviction_and_transparent_restore() {
        let mut m = manager(ServiceConfig {
            max_live_sessions: 1,
            ..ServiceConfig::default()
        });
        let a = m.create("anchors", None, None).unwrap();
        m.dispatch(a, scrape(1)).unwrap();
        let b = m.create("anchors", None, None).unwrap();
        // Creating (and touching) b evicted a.
        assert!(m.is_evicted(a));
        assert!(!m.is_evicted(b));
        assert_eq!(m.live_count(), 1);
        // Touching a restores it and evicts b.
        let reply = m.dispatch(a, scrape(2)).unwrap();
        assert_eq!(reply.mode, Mode::Authorize, "restored session continues");
        assert!(m.is_evicted(b));
        let stats = m.stats_v2();
        assert!(stats.residency.evictions >= 2);
        assert_eq!(stats.residency.restores, 1);
        assert_eq!(stats.sessions.live, 1);
        assert_eq!(stats.sessions.evicted, 1);
    }

    #[test]
    fn idle_eviction_frees_stale_sessions() {
        let mut m = manager(ServiceConfig::default());
        let a = m.create("anchors", None, None).unwrap();
        let b = m.create("anchors", None, None).unwrap();
        m.dispatch(a, scrape(1)).unwrap();
        for _ in 0..10 {
            m.dispatch(a, Event::Interrupt).unwrap();
        }
        assert_eq!(m.evict_idle(5), 1, "only the stale session is evicted");
        assert!(m.is_evicted(b));
        assert!(!m.is_evicted(a));
    }

    #[test]
    fn per_session_deadline_overrides_the_template() {
        let mut m = manager(ServiceConfig::default());
        let id = m
            .create("anchors", None, Some(Duration::from_millis(250)))
            .unwrap();
        // The deadline is applied to this session only; the template is
        // untouched (observable: the default-config session still works).
        let other = m.create("anchors", None, None).unwrap();
        m.dispatch(id, scrape(1)).unwrap();
        m.dispatch(other, scrape(1)).unwrap();
    }

    #[test]
    fn rejected_events_are_counted_not_fatal() {
        let mut m = manager(ServiceConfig::default());
        let id = m.create("anchors", None, None).unwrap();
        assert!(matches!(
            m.dispatch(id, Event::AutomateStep),
            Err(ServiceError::Session(SessionError::WrongMode { .. }))
        ));
        m.dispatch(id, scrape(1)).unwrap();
        let stats = m.stats_v2();
        assert_eq!(stats.events.rejected, 1);
        assert_eq!(stats.events.ok, 1);
    }

    #[test]
    fn durability_requests_without_a_store_are_typed_errors() {
        let mut m = manager(ServiceConfig::default());
        assert_eq!(m.checkpoint(), Err(ServiceError::NoStore));
        assert_eq!(m.recover(), Err(ServiceError::NoStore));
        for kind in ["checkpoint", "recover"] {
            let reply = m.handle_json(&format!(r#"{{"v": 1, "kind": "{kind}"}}"#));
            assert!(reply.contains(r#""code":"no_store""#), "{reply}");
        }
    }

    /// A segment store in a fresh scratch directory, shared through a
    /// handle so a test can inspect what a manager wrote into it.
    struct SharedStore {
        dir: std::path::PathBuf,
        handle: crate::store::SegmentHandle,
    }

    impl SharedStore {
        fn new(name: &str) -> SharedStore {
            let dir = std::env::temp_dir()
                .join(format!("webrobot-manager-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let handle = crate::store::SegmentStore::open(&dir)
                .unwrap()
                .into_shared();
            SharedStore { dir, handle }
        }

        fn boxed(&self) -> Box<dyn SnapshotStore> {
            Box::new(self.handle.clone())
        }
    }

    impl Drop for SharedStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn evictions_spill_to_the_store_and_a_reopen_adopts_them() {
        let store = SharedStore::new("reopen");
        let mut m = SessionManager::with_store(ServiceConfig::default(), store.boxed()).unwrap();
        m.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        let id = m.create("anchors", None, None).unwrap();
        m.dispatch(id, scrape(1)).unwrap();
        m.dispatch(id, scrape(2)).unwrap();
        // An eviction spills the snapshot record immediately.
        assert!(m.evict(id));
        assert!(
            store.handle.get("s-1").unwrap().is_some(),
            "eviction spilled to the store"
        );
        let stats_before = m.stats_v2();
        drop(m); // flush on drop writes the metadata record too
        assert!(store.handle.get("shard-1-of-1").unwrap().is_some());

        // "Restart": reopen the store, re-register the site, continue.
        let mut m = SessionManager::with_store(ServiceConfig::default(), store.boxed()).unwrap();
        m.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        assert_eq!(m.session_count(), 1);
        assert!(m.is_evicted(id), "adopted as a cold store record");
        let stats = m.stats_v2();
        assert_eq!(stats.sessions.created, stats_before.sessions.created);
        assert_eq!(stats.events.ok, stats_before.events.ok);
        // The adopted session continues mid-workflow, and new creates do
        // not collide with the adopted id.
        let reply = m.dispatch(id, Event::Accept { index: 0 }).unwrap();
        assert_eq!(reply.outputs, 3);
        assert_eq!(m.create("anchors", None, None).unwrap(), SessionId(2));
        // Closing removes the durable record.
        m.close(id).unwrap();
        assert!(
            store.handle.get("s-1").unwrap().is_none(),
            "closed sessions stay dead"
        );
    }

    #[test]
    fn meta_next_id_outside_the_shard_residue_is_rejected() {
        // Shard 0 of 2 issues ids 1, 3, 5, …; a metadata record claiming
        // next_id 4 (shard 1's sequence) would make the two shards
        // collide, so the reopen must reject it as corrupt.
        let mut store = crate::store::MemoryStore::new();
        let meta = persist::encode_meta(&ManagerMeta {
            next_id: 4,
            clock: 0,
            stats: StatsV2::default(),
        });
        store.put("shard-1-of-2", &meta).unwrap();
        match SessionManager::with_store_sequenced(ServiceConfig::default(), Box::new(store), 1, 2)
        {
            Err(StoreError::Corrupt { key, detail }) => {
                assert_eq!(key, "shard-1-of-2");
                assert!(detail.contains("next_id 4"), "{detail}");
            }
            other => panic!("expected a corrupt-meta error, got {other:?}"),
        }
        // Same for a cursor past the id space: adopting it would issue
        // ids the i64-valued meta record cannot round-trip.
        let mut store = crate::store::MemoryStore::new();
        let meta = persist::encode_meta(&ManagerMeta {
            next_id: MAX_SESSION_ID + 2,
            clock: 0,
            stats: StatsV2::default(),
        });
        store.put("shard-1-of-1", &meta).unwrap();
        match SessionManager::with_store(ServiceConfig::default(), Box::new(store)) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("id space"), "{detail}")
            }
            other => panic!("expected a corrupt-meta error, got {other:?}"),
        }
    }

    /// A store whose `remove` fails while `fail_removes` is set — the
    /// transient I/O failure `close`'s best-effort delete can hit.
    #[derive(Debug)]
    struct FlakyRemoveStore {
        inner: crate::store::MemoryStore,
        fail_removes: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl SnapshotStore for FlakyRemoveStore {
        fn put(&mut self, key: &str, record: &Value) -> Result<(), StoreError> {
            self.inner.put(key, record)
        }
        fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
            self.inner.get(key)
        }
        fn remove(&mut self, key: &str) -> Result<(), StoreError> {
            if self.fail_removes.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(StoreError::Io {
                    detail: format!("transient failure removing '{key}'"),
                });
            }
            self.inner.remove(key)
        }
        fn keys(&self) -> Result<Vec<String>, StoreError> {
            self.inner.keys()
        }
    }

    /// A close whose store removal fails transiently is retried by the
    /// next checkpoint, and the closed session can never resurrect
    /// through `recover` in the meantime.
    #[test]
    fn failed_close_removals_are_retried_and_never_resurrect() {
        let fail = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let store = Box::new(FlakyRemoveStore {
            inner: crate::store::MemoryStore::new(),
            fail_removes: fail.clone(),
        });
        let mut m = SessionManager::with_store(ServiceConfig::default(), store).unwrap();
        m.register_site("anchors", anchor_site(4), Value::Object(vec![]));
        let id = m.create("anchors", None, None).unwrap();
        m.dispatch(id, scrape(1)).unwrap();
        assert!(m.evict(id), "record spilled to the store");

        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        m.close(id).unwrap(); // remove fails silently, queued for retry
        assert_eq!(
            m.recover().unwrap(),
            0,
            "a pending-removal record must not be re-adopted"
        );
        fail.store(false, std::sync::atomic::Ordering::SeqCst);
        m.checkpoint().unwrap(); // retries the removal
        assert_eq!(m.recover().unwrap(), 0, "record is gone for good");
        assert_eq!(
            m.dispatch(id, scrape(2)),
            Err(ServiceError::UnknownSession(id.to_string()))
        );
    }

    /// Checkpoint never deletes records this manager did not write: a
    /// record dropped into the store by another process (a hand-off)
    /// survives checkpoints until `recover` adopts it.
    #[test]
    fn checkpoint_preserves_foreign_records_awaiting_recover() {
        let store = SharedStore::new("handoff");
        let mut m = SessionManager::with_store(ServiceConfig::default(), store.boxed()).unwrap();
        m.register_site("anchors", anchor_site(4), Value::Object(vec![]));
        m.create("anchors", None, None).unwrap();
        // Another writer hands a session off through the shared store.
        store
            .handle
            .clone()
            .put(
                "s-7",
                &parse_json("{\"v\":1,\"kind\":\"session\"}").unwrap(),
            )
            .unwrap();
        m.checkpoint().unwrap();
        assert!(
            store.handle.get("s-7").unwrap().is_some(),
            "foreign record must survive the checkpoint"
        );
        assert_eq!(m.recover().unwrap(), 1, "and recover adopts it");
    }

    /// A hostile store key with an absurd session id is rejected as
    /// corrupt at reopen: adopting it would hang an O(id) cursor bump or
    /// push `next_id` past what the i64-valued metadata record can
    /// represent (locking the store out on the *next* reopen).
    #[test]
    fn huge_adopted_ids_are_rejected_as_corrupt() {
        for raw_id in [u64::MAX, MAX_SESSION_ID + 1] {
            let mut store = crate::store::MemoryStore::new();
            let key = format!("s-{raw_id}");
            store.put(&key, &Value::object([])).unwrap();
            match SessionManager::with_store(ServiceConfig::default(), Box::new(store)) {
                Err(StoreError::Corrupt { key: k, detail }) => {
                    assert_eq!(k, key);
                    assert!(detail.contains("id space"), "{detail}");
                }
                other => panic!("expected a corrupt-record error, got {other:?}"),
            }
        }
        // The cap itself is adoptable.
        let mut store = crate::store::MemoryStore::new();
        store
            .put(&format!("s-{MAX_SESSION_ID}"), &Value::object([]))
            .unwrap();
        let m = SessionManager::with_store(ServiceConfig::default(), Box::new(store)).unwrap();
        assert_eq!(m.session_count(), 1);
        // Id 0 is never issued; under sharding it would route nowhere.
        let mut store = crate::store::MemoryStore::new();
        store.put("s-0", &Value::object([])).unwrap();
        match SessionManager::with_store(ServiceConfig::default(), Box::new(store)) {
            Err(StoreError::Corrupt { key, .. }) => assert_eq!(key, "s-0"),
            other => panic!("expected a corrupt-record error, got {other:?}"),
        }
    }

    #[test]
    fn sub_millisecond_deadlines_persist_as_one_millisecond() {
        let store = SharedStore::new("deadline");
        let mut m = SessionManager::with_store(ServiceConfig::default(), store.boxed()).unwrap();
        m.register_site("anchors", anchor_site(4), Value::Object(vec![]));
        m.create("anchors", None, Some(Duration::from_micros(500)))
            .unwrap();
        m.checkpoint().unwrap();
        let raw = store.handle.get("s-1").unwrap().unwrap().to_json();
        assert!(
            raw.contains("\"deadline_ms\":1"),
            "rounded up, never to a zero timeout: {raw}"
        );
    }

    #[test]
    fn reopen_without_the_site_yields_a_typed_error_on_touch() {
        let mut store = crate::store::MemoryStore::new();
        {
            let mut m = SessionManager::new(ServiceConfig::default());
            m.register_site("anchors", anchor_site(4), Value::Object(vec![]));
            let id = m.create("anchors", None, None).unwrap();
            m.dispatch(id, scrape(1)).unwrap();
            let record = persist::encode_session(1, "anchors", None, &{
                let Some(Tracked {
                    slot: Slot::Live { session, .. },
                    ..
                }) = m.sessions.get(&1)
                else {
                    panic!("live")
                };
                session.snapshot()
            });
            store.put("s-1", &record).unwrap();
        }
        let mut m = SessionManager::with_store(ServiceConfig::default(), Box::new(store)).unwrap();
        // No site registered: the record cannot resolve.
        let err = m.dispatch(SessionId(1), scrape(2)).unwrap_err();
        assert_eq!(err, ServiceError::UnknownSite("anchors".to_string()));
        // Registering the site afterwards repairs the session in place.
        m.register_site("anchors", anchor_site(4), Value::Object(vec![]));
        m.dispatch(SessionId(1), scrape(2)).unwrap();
    }

    #[test]
    fn handle_json_is_total_on_garbage() {
        let mut m = manager(ServiceConfig::default());
        for raw in [
            "",
            "][",
            r#"{"v": 9, "kind": "metrics"}"#,
            r#"{"v": 1, "kind": "event", "session": "bogus", "event": {"type": "finish"}}"#,
            r#"{"v": 1, "kind": "close", "session": "s-77"}"#,
        ] {
            let reply = m.handle_json(raw);
            assert!(reply.contains(r#""status":"error""#), "{raw} → {reply}");
        }
    }
}
