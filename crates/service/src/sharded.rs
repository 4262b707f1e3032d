//! Shard the session service across threads: a [`ShardedManager`] owns N
//! worker threads, each running a plain single-threaded [`SessionManager`],
//! and routes every request to the shard that owns its session.
//!
//! Sessions are share-nothing (one browser + one synthesizer each, made
//! `Send` by the `Rc`→`Arc` refactor underneath), so the natural unit of
//! parallelism is the whole session: a session is pinned to one shard for
//! its entire life, every one of its requests is handled on that shard's
//! thread in arrival order, and shards never touch each other's state. No
//! locks are held while a session executes — the only shared state is the
//! create-sequencing counter.
//!
//! **Quantum scheduling.** Within a shard, sessions do *not* run FIFO to
//! completion: each worker keeps a per-session run queue and round-robins
//! over the sessions that have work, giving each one a bounded synthesis
//! quantum ([`ServiceConfig::quantum`]) per turn via
//! [`SessionManager::handle_event_quantum`]. A session whose search
//! exhausts its quantum is *parked* and resumed on its next turn, so one
//! pathological demonstration degrades only its own session's latency —
//! its shard-mates keep being served between its slices. Per-session
//! order is still strict FIFO (a session's next request never starts
//! before its previous one finished), and the sliced search concludes
//! with exactly the result an unsliced run would produce, so a client
//! that drives its session one request at a time still observes
//! *byte-identical* wire responses to an unsharded [`SessionManager`].
//!
//! **Backpressure.** Each shard admits at most
//! [`ServiceConfig::max_queued_per_shard`] requests in flight; beyond
//! that the front end answers with the typed `overloaded` error instead
//! of queueing without bound. **Worker panics** mark the shard down:
//! queued jobs are failed with `shard_down` immediately (not silently
//! dropped), later requests are rejected without blocking, and create
//! fails over to the surviving shards.
//!
//! **Routing guarantee.** `s-<n>` lives on shard `(n − 1) mod N`, forever.
//! Create requests are sequenced so the shards jointly issue the same
//! `s-1, s-2, …` id sequence a single manager would (shard `k` of `N` is
//! configured to issue `k+1, k+1+N, …`, and the router dispatches the
//! `j`-th successful create to shard `(j − 1) mod N`). Byte-identity to
//! the unsharded manager under sequential driving is pinned for shard
//! counts {1, 2, 4} by `tests/sharded.rs`.
//!
//! [`ShardedManager`] is `Sync`: any number of front-end threads may call
//! [`handle_json`](ShardedManager::handle_json) concurrently, and requests
//! for different sessions proceed in parallel on different shards. That is
//! the scaling story measured by the `sharded_service` Criterion group in
//! `crates/bench/benches/service.rs`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use webrobot_browser::Site;
use webrobot_data::Value;
use webrobot_interact::Event;
use webrobot_metrics::{Metrics, RequestKind};

use crate::config::ServiceConfig;
use crate::manager::{error_response, ServiceError, SessionManager};
use crate::protocol::{self, Request, Response};
use crate::stats::StatsV2;
use crate::store::{SnapshotStore, StoreError};

/// One unit of work sent to a shard thread.
enum Job {
    /// Handle one wire request and send the response back.
    Request(Request, Sender<Response>),
    /// Register a site in this shard's catalog and acknowledge.
    Register {
        name: String,
        site: Arc<Site>,
        input: Value,
        ack: Sender<()>,
    },
}

/// Serializes session creation so the global id sequence (and therefore
/// create→shard routing) is deterministic.
#[derive(Debug)]
struct CreateRouter {
    /// Successful creates so far, across all shards; the next create will
    /// be `s-<created + 1>` and must go to shard `created mod N`.
    created: u64,
}

/// The front end's handle to one shard worker.
#[derive(Debug)]
struct ShardHandle {
    tx: Sender<Job>,
    /// Requests admitted but not yet answered; the admission limit is
    /// checked against this before every send. The worker releases the
    /// slot *before* delivering the reply, so a caller that has received
    /// a response is guaranteed re-admission (no spurious `overloaded`
    /// on an immediate follow-up request).
    inflight: Arc<AtomicUsize>,
    /// Set by the worker's panic guard; once down, requests are rejected
    /// with `shard_down` up front instead of blocking on a dead thread.
    down: Arc<AtomicBool>,
}

impl ShardHandle {
    /// Reserves one in-flight slot, or reports the queue full.
    fn try_admit(&self, limit: usize) -> bool {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < limit).then_some(n + 1)
            })
            .is_ok()
    }
}

/// N shard threads, each owning a plain [`SessionManager`], behind the
/// same v1 string-in/string-out boundary.
///
/// See the module docs for the routing guarantee and the quantum
/// scheduler. Caps in [`ServiceConfig`] (`max_live_sessions`,
/// `max_sessions`, `max_queued_per_shard`) apply *per shard*: total
/// capacity scales with the shard count.
///
/// # Example
///
/// ```
/// # use std::sync::Arc;
/// # use webrobot_browser::SiteBuilder;
/// # use webrobot_dom::parse_html;
/// # use webrobot_service::{ShardedManager, ServiceConfig};
/// # use webrobot_lang::Value;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SiteBuilder::new();
/// let home = b.add_page("https://x.test/", parse_html(
///     "<html><a>1</a><a>2</a><a>3</a></html>")?);
/// let manager = ShardedManager::new(ServiceConfig::default(), 4);
/// manager.register_site("anchors", Arc::new(b.start_at(home).finish()),
///     Value::Object(vec![]));
///
/// // Same wire boundary as `SessionManager`, but `&self`: many threads
/// // may drive their sessions concurrently.
/// let reply = manager.handle_json(r#"{"v": 1, "kind": "create", "site": "anchors"}"#);
/// assert!(reply.contains(r#""session":"s-1""#), "{reply}");
/// let reply = manager.handle_json(
///     r#"{"v": 1, "kind": "event", "session": "s-1", "event":
///        {"type": "demonstrate", "action": {"op": "scrape_text", "selector": "/a[1]"}}}"#,
/// );
/// assert!(reply.contains(r#""outcome":"recorded""#), "{reply}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedManager {
    shards: Vec<ShardHandle>,
    router: Mutex<CreateRouter>,
    workers: Vec<JoinHandle<()>>,
    /// Admission limit per shard, from [`ServiceConfig::max_queued_per_shard`].
    max_queued: usize,
    /// Shared with every shard worker (one gauge set per shard); request
    /// latency is recorded here, at the front-end boundary, exactly once.
    metrics: Arc<Metrics>,
}

// The whole point: front-end threads share one `&ShardedManager`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedManager>();
};

impl ShardedManager {
    /// Spawns `shards` worker threads (clamped to ≥ 1), each owning a
    /// [`SessionManager`] built from `cfg`.
    pub fn new(cfg: ServiceConfig, shards: usize) -> ShardedManager {
        let shards = shards.max(1);
        let managers = (0..shards)
            .map(|k| SessionManager::new(cfg.clone()).with_id_sequence(k as u64 + 1, shards as u64))
            .collect();
        ShardedManager::spawn(managers, 0, &cfg)
    }

    /// The durable form of [`ShardedManager::new`]: one persistent
    /// [`SnapshotStore`] per shard (the shard count is `stores.len()`),
    /// each shard **adopting the sessions it owns** from its store — this
    /// is how a whole sharded deployment survives a process restart.
    ///
    /// The store layout is shard-count-stable (session records are keyed
    /// by id only), so all stores may point at one shared directory: at
    /// shard count `N`, shard `k` adopts exactly the ids
    /// `≡ k+1 (mod N)`, and together the shards partition the store.
    /// Reopening at the *same* shard count also finds each shard's
    /// metadata record (`shard-<k+1>-of-<N>`), making the restart
    /// byte-unobservable on the wire — counters, id sequence and LRU
    /// clocks all continue (`tests/persistence.rs` pins this at shard
    /// counts 1, 2 and 4). Reopening at a *different* count keeps every
    /// session but starts fresh counters, and the dense id sequence may
    /// skip (never collide).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when `stores` is empty or any shard's reopen fails
    /// (a corrupt metadata record or a hostile session key; session
    /// records are read on first touch — see
    /// [`SessionManager::with_store`]).
    pub fn with_stores(
        cfg: ServiceConfig,
        stores: Vec<Box<dyn SnapshotStore>>,
    ) -> Result<ShardedManager, StoreError> {
        if stores.is_empty() {
            return Err(StoreError::io("with_stores needs at least one store"));
        }
        let shards = stores.len();
        let managers = stores
            .into_iter()
            .enumerate()
            .map(|(k, store)| {
                SessionManager::with_store_sequenced(
                    cfg.clone(),
                    store,
                    k as u64 + 1,
                    shards as u64,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        // The create router resumes where the previous process stopped:
        // its cursor is exactly the number of successful creates ever,
        // which the adopted metadata carries as `sessions_created`.
        let created: u64 = managers.iter().map(|m| m.stats_v2().sessions.created).sum();
        Ok(ShardedManager::spawn(managers, created, &cfg))
    }

    /// Spawns one worker thread per prepared manager.
    fn spawn(
        mut managers: Vec<SessionManager>,
        created: u64,
        cfg: &ServiceConfig,
    ) -> ShardedManager {
        // One shared metrics registry: each shard records into its own
        // gauge slot, while request accounting stays at the front end
        // (the workers' managers are told not to double-count).
        let metrics = Arc::new(Metrics::new(managers.len()));
        for (k, manager) in managers.iter_mut().enumerate() {
            manager.attach_metrics(metrics.clone(), k, false);
        }
        let mut shards = Vec::with_capacity(managers.len());
        let mut workers = Vec::with_capacity(managers.len());
        for (k, manager) in managers.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job>();
            let ctx = ShardCtx {
                index: k,
                quantum: cfg.quantum,
                inflight: Arc::new(AtomicUsize::new(0)),
                down: Arc::new(AtomicBool::new(false)),
                metrics: metrics.clone(),
            };
            shards.push(ShardHandle {
                tx,
                inflight: ctx.inflight.clone(),
                down: ctx.down.clone(),
            });
            workers.push(
                std::thread::Builder::new()
                    .name(format!("webrobot-shard-{k}"))
                    .spawn(move || shard_loop(manager, rx, ctx))
                    .expect("spawn shard thread"),
            );
        }
        ShardedManager {
            shards,
            router: Mutex::new(CreateRouter { created }),
            workers,
            max_queued: cfg.max_queued_per_shard.max(1),
            metrics,
        }
    }

    /// How many shard threads serve this manager.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers a site on **every** shard (a session may be created on
    /// any of them), blocking until all shards acknowledge so a `create`
    /// sent immediately afterwards cannot race the registration.
    pub fn register_site(&self, name: impl Into<String>, site: Arc<Site>, input: Value) {
        let name = name.into();
        let mut acks = Vec::with_capacity(self.shards.len());
        for handle in &self.shards {
            if handle.down.load(Ordering::SeqCst) {
                continue;
            }
            let (ack, ack_rx) = mpsc::channel();
            if handle
                .tx
                .send(Job::Register {
                    name: name.clone(),
                    site: site.clone(),
                    input: input.clone(),
                    ack,
                })
                .is_ok()
            {
                acks.push(ack_rx);
            }
        }
        for ack in acks {
            ack.recv().ok();
        }
    }

    /// Handles one typed request, routing it to the owning shard. Total,
    /// like [`SessionManager::handle`]: every failure is a
    /// [`Response::Error`] — including `overloaded` when the owning
    /// shard's admission queue is full and `shard_down` when its worker
    /// has panicked.
    pub fn handle(&self, request: Request) -> Response {
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

    /// [`handle`](ShardedManager::handle) minus the metrics boundary.
    fn handle_inner(&self, request: Request) -> Response {
        match request {
            Request::Create { .. } => self.create(request),
            Request::Event { ref session, .. }
            | Request::Outputs { ref session, .. }
            | Request::Close { ref session, .. } => match session.parse() {
                Ok(id) => {
                    let shard = self.shard_of(id);
                    self.roundtrip(shard, request)
                }
                // Byte-identical to the unsharded manager's rejection of a
                // syntactically invalid id.
                Err(()) => error_response(&ServiceError::UnknownSession(session.clone())),
            },
            Request::Metrics => self.metrics_response(),
            // Durability requests fan out to every shard (each owns a
            // disjoint slice of the sessions and its own store handle)
            // and report the summed session count.
            Request::Checkpoint => self.broadcast_checkpoint(),
        }
    }

    /// The string-in/string-out boundary, verbatim from
    /// [`SessionManager::handle_json`] — but `&self`, so any number of
    /// threads may call it concurrently.
    pub fn handle_json(&self, request: &str) -> String {
        match Request::from_json(request) {
            Ok(request) => self.handle(request),
            Err(e) => {
                self.metrics
                    .record_request(RequestKind::Malformed, Some(e.code()), Duration::ZERO);
                Response::from(e)
            }
        }
        .to_json()
    }

    /// Aggregate statistics: the `stats` group of the `metrics` fan-out,
    /// summed field-wise over all shards (pinned against the unsharded
    /// manager by `tests/sharded.rs`). Each counter counts disjoint
    /// per-shard events, so the sum is exact. Shards that are down (or
    /// over their admission limit) are skipped.
    pub fn stats_v2(&self) -> StatsV2 {
        let mut total = StatsV2::default();
        for reply in self.fan_out(&Request::Metrics) {
            if let Some(Response::Metrics { stats, .. }) = reply {
                total.absorb(&stats);
            }
        }
        total
    }

    /// The shared observability registry: request/lifecycle histograms,
    /// scheduler counters and one gauge set per shard.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Builds the `metrics` response: fans out to every shard so each
    /// refreshes its own gauge slot (and reports its counters), then
    /// overwrites the queue-depth gauges with the front end's in-flight
    /// counts and snapshots the shared registry.
    fn metrics_response(&self) -> Response {
        let stats = self.stats_v2();
        for (shard, handle) in self.shards.iter().enumerate() {
            self.metrics
                .shard(shard)
                .set_queue_depth(handle.inflight.load(Ordering::SeqCst) as u64);
        }
        Response::Metrics {
            stats,
            metrics: Box::new(self.metrics.snapshot()),
        }
    }

    // ───────────────────── internals ─────────────────────

    /// Fans a `checkpoint` out to every shard and sums the per-shard
    /// session counts; the first shard error (in shard order) wins
    /// (shards already flushed stay flushed — a checkpoint is
    /// idempotent). All shards are sent the request *before* any reply
    /// is awaited, so the shards' store I/O runs concurrently and
    /// wire-visible latency is bounded by the slowest shard, not the sum.
    fn broadcast_checkpoint(&self) -> Response {
        let mut total = 0usize;
        for (shard, reply) in self.fan_out(&Request::Checkpoint).into_iter().enumerate() {
            match reply {
                Some(Response::Checkpointed { sessions }) => total += sessions,
                Some(error) => return error,
                None => return shard_down_response(shard),
            }
        }
        Response::Checkpointed { sessions: total }
    }

    /// Sends `request` to **every** shard before awaiting any reply, so
    /// the shards process it concurrently (latency is bounded by the
    /// slowest shard, not the sum); replies come back in shard order. A
    /// down or overloaded shard contributes its typed error without
    /// being sent anything; `None` marks a shard that hung up mid-reply.
    fn fan_out(&self, request: &Request) -> Vec<Option<Response>> {
        enum Pending {
            Reply(Receiver<Response>),
            Immediate(Response),
        }
        let pending: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, handle)| {
                if handle.down.load(Ordering::SeqCst) {
                    return Pending::Immediate(shard_down_response(shard));
                }
                if !handle.try_admit(self.max_queued) {
                    return Pending::Immediate(error_response(&ServiceError::Overloaded));
                }
                let (reply, reply_rx) = mpsc::channel();
                match handle.tx.send(Job::Request(request.clone(), reply)) {
                    Ok(()) => Pending::Reply(reply_rx),
                    Err(_) => {
                        handle.inflight.fetch_sub(1, Ordering::SeqCst);
                        Pending::Immediate(shard_down_response(shard))
                    }
                }
            })
            .collect();
        pending
            .into_iter()
            .map(|p| match p {
                Pending::Reply(rx) => rx.recv().ok(),
                Pending::Immediate(response) => Some(response),
            })
            .collect()
    }

    /// Which shard owns session id `n`: `(n − 1) mod N`, the inverse of
    /// the per-shard id sequence `k+1, k+1+N, …`. No shard ever issues
    /// `s-0`, but the string parses, so route it benignly (to shard 0,
    /// which answers `unknown_session` exactly like the unsharded
    /// manager) instead of underflowing.
    fn shard_of(&self, id: crate::SessionId) -> usize {
        (id.raw().saturating_sub(1) % self.shards.len() as u64) as usize
    }

    /// Sequenced create: pick the shard whose turn it is in the global id
    /// sequence, and advance the sequence only if the shard actually
    /// issued the id (failed creates — unknown site, session cap — must
    /// not burn ids, exactly like the unsharded manager).
    ///
    /// A shard that is *full* (`too_many_sessions`) or *down* must not
    /// wedge the whole service while its neighbors have capacity, so the
    /// create fails over around the ring and only reports the error when
    /// every shard refuses. Failover is the one place the dense
    /// `s-1, s-2, …` sequence can skip: a session created on a non-turn
    /// shard takes that shard's next stride id (ids stay unique and
    /// route correctly — `(n−1) mod N` identifies the issuing shard by
    /// construction). An `overloaded` shard does *not* fail over: the
    /// condition is transient and the client should back off and retry.
    fn create(&self, request: Request) -> Response {
        let mut router = self.router.lock().unwrap_or_else(PoisonError::into_inner);
        let first = (router.created % self.shards.len() as u64) as usize;
        let mut response = None;
        for offset in 0..self.shards.len() {
            let shard = (first + offset) % self.shards.len();
            let attempt = self.roundtrip(shard, request.clone());
            let next_shard = matches!(&attempt, Response::Error { code, .. }
                if code == "too_many_sessions" || code == "shard_down");
            response = Some(attempt);
            if !next_shard {
                break;
            }
        }
        let response = response.expect("at least one shard");
        if matches!(response, Response::Created { .. }) {
            router.created += 1;
        }
        response
    }

    /// Sends one request to a shard and waits for its response. Rejects
    /// up front — without blocking — when the shard is down or its
    /// admission queue is full.
    fn roundtrip(&self, shard: usize, request: Request) -> Response {
        let handle = &self.shards[shard];
        if handle.down.load(Ordering::SeqCst) {
            return shard_down_response(shard);
        }
        if !handle.try_admit(self.max_queued) {
            return error_response(&ServiceError::Overloaded);
        }
        let (reply, reply_rx) = mpsc::channel();
        match handle.tx.send(Job::Request(request, reply)) {
            Ok(()) => match reply_rx.recv() {
                Ok(response) => response,
                // The worker died with our job in hand (panic guard ran,
                // or `Drop` raced us); the slot is written off with it.
                Err(_) => shard_down_response(shard),
            },
            Err(_) => {
                // Never reached the worker: give the slot back.
                handle.inflight.fetch_sub(1, Ordering::SeqCst);
                shard_down_response(shard)
            }
        }
    }
}

/// The typed error for a shard whose worker is gone.
fn shard_down_response(shard: usize) -> Response {
    Response::Error {
        code: "shard_down".to_string(),
        message: format!("shard {shard} is not serving requests"),
    }
}

impl Drop for ShardedManager {
    fn drop(&mut self) {
        // Disconnect every shard channel so the workers' `recv` loops end,
        // then join them: no detached threads outlive the manager.
        self.shards.clear();
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }
}

/// Per-worker scheduling context, shared with the front-end handle.
struct ShardCtx {
    index: usize,
    /// Synthesis budget per scheduling turn.
    quantum: Duration,
    inflight: Arc<AtomicUsize>,
    down: Arc<AtomicBool>,
    /// Shared observability registry; the scheduler counts quanta and
    /// parks here, and the worker owns gauge slot `index`.
    metrics: Arc<Metrics>,
}

/// A budget that never parks: "run this step to completion" — the
/// budget of the drain after the front end hangs up.
const RUN_TO_COMPLETION: Duration = Duration::MAX;

/// One session's run queue on its shard.
#[derive(Default)]
struct SessionQueue {
    /// Requests not yet started, in arrival order.
    jobs: VecDeque<(Request, Sender<Response>)>,
    /// The in-flight event whose synthesis is parked mid-search, with the
    /// reply channel it still owes a response.
    parked: Option<(String, Sender<Response>)>,
}

impl SessionQueue {
    fn has_work(&self) -> bool {
        self.parked.is_some() || !self.jobs.is_empty()
    }
}

/// One shard thread: the panic guard around the scheduler. On a worker
/// panic the shard is marked down (so the front end stops routing to it),
/// the panic is logged once, and every job still queued in the channel is
/// failed with `shard_down` — queued callers get an answer instead of a
/// silent hang until the next request.
fn shard_loop(manager: SessionManager, jobs: Receiver<Job>, ctx: ShardCtx) {
    // The manager lives inside the guarded closure so a panic drops it
    // while unwinding, where its flush-on-drop checkpoint is skipped —
    // checkpointing through the very store that just panicked would
    // abort the process.
    let run = std::panic::AssertUnwindSafe(|| {
        let mut manager = manager;
        serve(&mut manager, &jobs, &ctx);
    });
    if std::panic::catch_unwind(run).is_err() {
        ctx.down.store(true, Ordering::SeqCst);
        eprintln!(
            "webrobot-shard-{}: worker panicked; failing queued requests with shard_down",
            ctx.index
        );
        while let Ok(job) = jobs.try_recv() {
            match job {
                Job::Request(_, reply) => {
                    reply.send(shard_down_response(ctx.index)).ok();
                }
                Job::Register { ack, .. } => {
                    ack.send(()).ok();
                }
            }
        }
        // Jobs that race past the drain above lose their channel when
        // `jobs` drops here; their callers see the same `shard_down`.
    }
}

/// The quantum scheduler: per-session run queues, round-robin over the
/// sessions that have work, one bounded synthesis quantum per turn.
///
/// Ordering rules, chosen so sequential driving stays byte-identical to
/// the unsharded manager:
///
/// * Per-session requests execute strictly in arrival order; a parked
///   session's next request waits for the parked step to finish.
/// * `create`/`metrics`/`register` have no session state in flight and
///   run immediately on ingest, between quanta.
/// * `checkpoint` is a *barrier*: every parked session's in-flight step
///   is first driven to completion (a snapshot must never observe a
///   half-applied step), then the checkpoint runs.
///
/// When the front end hangs up, the scheduler drains all remaining work
/// to completion before the thread exits (preserving the flush-on-drop
/// contract of store-backed managers).
fn serve(manager: &mut SessionManager, jobs: &Receiver<Job>, ctx: &ShardCtx) {
    let mut queues: BTreeMap<String, SessionQueue> = BTreeMap::new();
    let mut ready: VecDeque<String> = VecDeque::new();
    let mut barriers: VecDeque<Sender<Response>> = VecDeque::new();
    let mut connected = true;

    while connected || !ready.is_empty() || !barriers.is_empty() {
        // Ingest: block only when there is nothing runnable, otherwise
        // drain whatever has arrived and keep scheduling.
        if connected && ready.is_empty() && barriers.is_empty() {
            match jobs.recv() {
                Ok(job) => ingest(job, manager, ctx, &mut queues, &mut ready, &mut barriers),
                Err(_) => {
                    connected = false;
                    continue;
                }
            }
        }
        while connected {
            match jobs.try_recv() {
                Ok(job) => ingest(job, manager, ctx, &mut queues, &mut ready, &mut barriers),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => connected = false,
            }
        }

        if let Some(reply) = barriers.pop_front() {
            // Finish every parked step before snapshotting, so the
            // barrier never observes a session mid-quantum: a step that
            // parks again goes back into `ready` and is found again.
            while let Some(pos) = ready
                .iter()
                .position(|key| queues.get(key).is_some_and(|q| q.parked.is_some()))
            {
                let key = ready.remove(pos).expect("position is in range");
                run_session(manager, ctx, &mut queues, &mut ready, key, ctx.quantum);
            }
            let response = manager.handle(Request::Checkpoint);
            // Release the admission slot *before* replying: a caller that
            // has seen the response must never find the slot still taken.
            ctx.inflight.fetch_sub(1, Ordering::SeqCst);
            reply.send(response).ok();
            continue;
        }

        if let Some(key) = ready.pop_front() {
            // Once the front end is gone nobody benefits from slicing:
            // drain the backlog at full speed.
            let budget = if connected {
                ctx.quantum
            } else {
                RUN_TO_COMPLETION
            };
            run_session(manager, ctx, &mut queues, &mut ready, key, budget);
        }
    }
}

/// Sorts one incoming job into the scheduler's state (or runs it
/// immediately when it has no per-session ordering constraint).
fn ingest(
    job: Job,
    manager: &mut SessionManager,
    ctx: &ShardCtx,
    queues: &mut BTreeMap<String, SessionQueue>,
    ready: &mut VecDeque<String>,
    barriers: &mut VecDeque<Sender<Response>>,
) {
    match job {
        Job::Register {
            name,
            site,
            input,
            ack,
        } => {
            manager.register_site(name, site, input);
            ack.send(()).ok();
        }
        Job::Request(request, reply) => match request {
            Request::Event { ref session, .. }
            | Request::Outputs { ref session, .. }
            | Request::Close { ref session, .. } => {
                let key = session.clone();
                let queue = queues.entry(key.clone()).or_default();
                if !queue.has_work() {
                    ready.push_back(key);
                }
                queue.jobs.push_back((request, reply));
            }
            Request::Checkpoint => barriers.push_back(reply),
            // Create/Metrics touch no in-flight session state: answer now.
            other => {
                // A metrics scrape also publishes this shard's scheduler
                // gauge (how many sessions sit parked mid-quantum), which
                // only the worker can observe.
                if matches!(other, Request::Metrics) {
                    let parked = queues.values().filter(|q| q.parked.is_some()).count();
                    ctx.metrics
                        .shard(ctx.index)
                        .set_parked_sessions(parked as u64);
                }
                let response = manager.handle(other);
                // Slot before reply, as in the barrier path.
                ctx.inflight.fetch_sub(1, Ordering::SeqCst);
                reply.send(response).ok();
            }
        },
    }
}

/// Gives session `key` one turn: resume its parked step or start its next
/// queued request, spending at most `budget` on synthesis. Requeues the
/// session while it still has work.
fn run_session(
    manager: &mut SessionManager,
    ctx: &ShardCtx,
    queues: &mut BTreeMap<String, SessionQueue>,
    ready: &mut VecDeque<String>,
    key: String,
    budget: Duration,
) {
    let Some(queue) = queues.get_mut(&key) else {
        return;
    };
    let finished = if let Some((session, reply)) = queue.parked.take() {
        match step_event(manager, ctx, &session, None, budget) {
            Some(response) => Some((reply, response)),
            None => {
                queue.parked = Some((session, reply));
                None
            }
        }
    } else if let Some((request, reply)) = queue.jobs.pop_front() {
        match request {
            Request::Event { session, event } => {
                match step_event(manager, ctx, &session, Some(event), budget) {
                    Some(response) => Some((reply, response)),
                    None => {
                        queue.parked = Some((session, reply));
                        None
                    }
                }
            }
            other => Some((reply, manager.handle(other))),
        }
    } else {
        None
    };
    if let Some((reply, response)) = finished {
        // Slot before reply, as in the barrier path.
        ctx.inflight.fetch_sub(1, Ordering::SeqCst);
        reply.send(response).ok();
    }
    if queue.has_work() {
        ready.push_back(key);
    } else {
        queues.remove(&key);
    }
}

/// Drives one event step: starts it (when `event` is given) or resumes
/// the session's parked step, spending at most `budget` on synthesis.
/// Returns `None` iff the step parked again.
fn step_event(
    manager: &mut SessionManager,
    ctx: &ShardCtx,
    session: &str,
    event: Option<Event>,
    budget: Duration,
) -> Option<Response> {
    ctx.metrics.record_quantum();
    let response = match event {
        Some(event) => manager.handle_event_quantum(session, event, budget),
        None => manager.continue_event_quantum(session, budget),
    };
    if response.is_none() {
        ctx.metrics.record_park();
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use webrobot_browser::SiteBuilder;
    use webrobot_dom::parse_html;
    use webrobot_interact::Event;
    use webrobot_lang::Action;

    fn anchor_site(n: usize) -> Arc<Site> {
        let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
        let mut b = SiteBuilder::new();
        let home = b.add_page(
            "https://anchors.test/",
            parse_html(&format!("<html>{body}</html>")).unwrap(),
        );
        Arc::new(b.start_at(home).finish())
    }

    fn sharded(shards: usize) -> ShardedManager {
        let m = ShardedManager::new(ServiceConfig::default(), shards);
        m.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        m
    }

    fn create(m: &ShardedManager) -> String {
        let reply = m.handle(Request::Create {
            site: "anchors".to_string(),
            input: None,
            deadline_ms: None,
        });
        match reply {
            Response::Created { session, .. } => session,
            other => panic!("create failed: {}", other.to_json()),
        }
    }

    fn scrape(i: usize) -> Event {
        Event::Demonstrate(Action::ScrapeText(format!("/a[{i}]").parse().unwrap()))
    }

    #[test]
    fn ids_are_issued_in_the_global_sequence() {
        let m = sharded(4);
        for want in 1..=9 {
            assert_eq!(create(&m), format!("s-{want}"));
        }
        assert_eq!(m.stats_v2().sessions.created, 9);
    }

    #[test]
    fn failed_creates_do_not_burn_ids() {
        let m = sharded(3);
        assert_eq!(create(&m), "s-1");
        let reply = m.handle(Request::Create {
            site: "nope".to_string(),
            input: None,
            deadline_ms: None,
        });
        assert!(matches!(reply, Response::Error { .. }));
        assert_eq!(create(&m), "s-2");
    }

    #[test]
    fn sessions_stick_to_their_shard_across_events() {
        let m = sharded(4);
        let ids: Vec<String> = (0..8).map(|_| create(&m)).collect();
        // Interleave events across all sessions; every session progresses
        // independently on its own shard.
        for i in 1..=2 {
            for id in &ids {
                let reply = m.handle(Request::Event {
                    session: id.clone(),
                    event: scrape(i),
                });
                assert!(
                    matches!(reply, Response::Event { .. }),
                    "{}",
                    reply.to_json()
                );
            }
        }
        let stats = m.stats_v2();
        assert_eq!(stats.events.ok, 16);
        assert_eq!(stats.sessions.live, 8);
    }

    #[test]
    fn full_shards_fail_over_until_the_whole_service_is_full() {
        let m = ShardedManager::new(
            ServiceConfig {
                max_sessions: 1,
                ..ServiceConfig::default()
            },
            2,
        );
        m.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        assert_eq!(create(&m), "s-1"); // shard 0
        assert_eq!(create(&m), "s-2"); // shard 1
        let reply = m.handle(Request::Create {
            site: "anchors".to_string(),
            input: None,
            deadline_ms: None,
        });
        assert!(
            matches!(&reply, Response::Error { code, .. } if code == "too_many_sessions"),
            "{}",
            reply.to_json()
        );
        // Freeing shard 1 lets the next create succeed even though the
        // round-robin turn points at the still-full shard 0. The id is
        // shard 1's next stride id (the dense sequence may skip under
        // cap pressure, never collide).
        m.handle(Request::Close {
            session: "s-2".to_string(),
        });
        assert_eq!(create(&m), "s-4");
        assert_eq!(m.stats_v2().sessions.created, 3);
    }

    #[test]
    fn session_zero_is_a_typed_error_not_a_panic() {
        // "s-0" parses as a canonical id but no shard ever issues it;
        // routing must not underflow — the reply is the same
        // unknown_session error the unsharded manager gives.
        let m = sharded(4);
        let reply = m.handle_json(
            r#"{"v": 1, "kind": "event", "session": "s-0", "event": {"type": "finish"}}"#,
        );
        assert!(reply.contains(r#""code":"unknown_session""#), "{reply}");
        assert!(reply.contains("no session 's-0'"), "{reply}");
    }

    #[test]
    fn unknown_and_malformed_sessions_are_typed_errors() {
        let m = sharded(2);
        for session in ["s-99", "bogus", "s-007"] {
            let reply = m.handle_json(&format!(
                r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {{"type": "finish"}}}}"#
            ));
            assert!(
                reply.contains(r#""code":"unknown_session""#),
                "{session} → {reply}"
            );
        }
    }

    #[test]
    fn concurrent_clients_drive_disjoint_sessions() {
        let m = sharded(4);
        let ids: Vec<String> = (0..8).map(|_| create(&m)).collect();
        std::thread::scope(|scope| {
            for id in &ids {
                let m = &m;
                scope.spawn(move || {
                    for i in 1..=2 {
                        let reply = m.handle(Request::Event {
                            session: id.clone(),
                            event: scrape(i),
                        });
                        assert!(
                            matches!(reply, Response::Event { .. }),
                            "{}",
                            reply.to_json()
                        );
                    }
                });
            }
        });
        assert_eq!(m.stats_v2().events.ok, 16);
    }

    #[test]
    fn drop_joins_all_workers() {
        let m = sharded(3);
        create(&m);
        drop(m); // must not hang or leak threads
    }

    #[test]
    fn tiny_quanta_still_answer_every_request_exactly() {
        // Under sequential driving, sharded replies must match an
        // unsharded manager's byte for byte whatever the quantum: a zero
        // quantum parks after (almost) every worklist item, an unbounded
        // one never parks, and a zero `deadline_ms` ends every search
        // after one whole item on both.
        for (quantum, deadline_ms) in [
            (Duration::ZERO, None),
            (Duration::MAX, None),
            (ServiceConfig::default().quantum, Some(0)),
        ] {
            let sliced = ShardedManager::new(
                ServiceConfig {
                    quantum,
                    ..ServiceConfig::default()
                },
                2,
            );
            sliced.register_site("anchors", anchor_site(6), Value::Object(vec![]));
            let mut unsliced = SessionManager::new(ServiceConfig::default());
            unsliced.register_site("anchors", anchor_site(6), Value::Object(vec![]));
            let mut exchange = |request: Request| {
                let reply = sliced.handle(request.clone()).to_json();
                assert_eq!(
                    reply,
                    unsliced.handle(request).to_json(),
                    "quantum {quantum:?}, deadline_ms {deadline_ms:?}: the replies differ"
                );
                reply
            };

            let create = Request::Create {
                site: "anchors".to_string(),
                input: None,
                deadline_ms,
            };
            exchange(create.clone());
            exchange(create);
            let mut last = Vec::new();
            for i in 1..=3 {
                last = ["s-1", "s-2"]
                    .map(|id| {
                        exchange(Request::Event {
                            session: id.to_string(),
                            event: scrape(i),
                        })
                    })
                    .to_vec();
            }
            for reply in last {
                assert!(reply.contains(r#""mode":"authorize""#), "{reply}");
                assert!(reply.contains("a[4]"), "{reply}");
            }
            exchange(Request::Outputs {
                session: "s-1".to_string(),
            });
            assert_eq!(sliced.stats_v2(), unsliced.stats_v2());
            if quantum.is_zero() {
                assert!(
                    sliced.metrics().snapshot().parks > 0,
                    "zero-budget quanta actually sliced a search"
                );
            }
        }
    }

    #[test]
    fn overload_rejections_recover_once_the_shard_drains() {
        // With an admission limit of 1, a second concurrent request is a
        // typed `overloaded` error, deterministically: a store whose
        // `put` blocks keeps the shard busy in a checkpoint for as long
        // as the test needs.
        use crate::store::MemoryStore;

        #[derive(Debug)]
        struct BlockingStore {
            inner: MemoryStore,
            entered: Sender<()>,
            release: Mutex<Receiver<()>>,
        }
        impl SnapshotStore for BlockingStore {
            fn put(&mut self, key: &str, value: &Value) -> Result<(), StoreError> {
                self.entered.send(()).ok();
                self.release
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv()
                    .ok();
                self.inner.put(key, value)
            }
            fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
                self.inner.get(key)
            }
            fn remove(&mut self, key: &str) -> Result<(), StoreError> {
                self.inner.remove(key)
            }
            fn keys(&self) -> Result<Vec<String>, StoreError> {
                self.inner.keys()
            }
        }

        let (entered_tx, entered) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        let store = BlockingStore {
            inner: MemoryStore::new(),
            entered: entered_tx,
            release: Mutex::new(release),
        };
        let m = ShardedManager::with_stores(
            ServiceConfig {
                max_queued_per_shard: 1,
                ..ServiceConfig::default()
            },
            vec![Box::new(store)],
        )
        .unwrap();
        m.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        create(&m);

        std::thread::scope(|scope| {
            let hostage = scope.spawn(|| m.handle(Request::Checkpoint));
            // The shard is now wedged inside `store.put` with its single
            // admission slot taken; any further request must be rejected
            // up front, not queued.
            entered.recv().unwrap();
            let reply = m.handle(Request::Event {
                session: "s-1".to_string(),
                event: scrape(1),
            });
            assert!(
                matches!(&reply, Response::Error { code, .. } if code == "overloaded"),
                "{}",
                reply.to_json()
            );
            // Releasing the store (every pending and future `recv` now
            // fails fast) lets the checkpoint finish; the freed slot
            // admits the retried event.
            drop(release_tx);
            assert!(matches!(
                hostage.join().unwrap(),
                Response::Checkpointed { .. }
            ));
        });
        let retry = m.handle(Request::Event {
            session: "s-1".to_string(),
            event: scrape(1),
        });
        assert!(
            matches!(retry, Response::Event { .. }),
            "{}",
            retry.to_json()
        );
    }

    #[test]
    fn a_panicked_shard_is_down_eagerly_and_creates_fail_over() {
        // A store that panics on `put` kills the worker mid-checkpoint;
        // the shard must go down *eagerly* — the checkpoint caller and
        // every queued job get `shard_down`, later requests are rejected
        // without blocking, and create fails over to the healthy shard.
        use crate::store::MemoryStore;

        #[derive(Debug)]
        struct PanickingStore(MemoryStore);
        impl SnapshotStore for PanickingStore {
            fn put(&mut self, _key: &str, _value: &Value) -> Result<(), StoreError> {
                panic!("injected store failure");
            }
            fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
                self.0.get(key)
            }
            fn remove(&mut self, key: &str) -> Result<(), StoreError> {
                self.0.remove(key)
            }
            fn keys(&self) -> Result<Vec<String>, StoreError> {
                self.0.keys()
            }
        }

        let m = ShardedManager::with_stores(
            ServiceConfig::default(),
            vec![
                Box::new(PanickingStore(MemoryStore::new())),
                Box::new(MemoryStore::new()),
            ],
        )
        .unwrap();
        m.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        assert_eq!(create(&m), "s-1"); // shard 0 (the doomed one)
        assert_eq!(create(&m), "s-2"); // shard 1

        let reply = m.handle(Request::Checkpoint);
        assert!(
            matches!(&reply, Response::Error { code, .. } if code == "shard_down"),
            "{}",
            reply.to_json()
        );
        // Eager rejection: the dead shard answers without blocking.
        let reply = m.handle(Request::Event {
            session: "s-1".to_string(),
            event: scrape(1),
        });
        assert!(
            matches!(&reply, Response::Error { code, .. } if code == "shard_down"),
            "{}",
            reply.to_json()
        );
        // Shard 1 is untouched.
        let reply = m.handle(Request::Event {
            session: "s-2".to_string(),
            event: scrape(1),
        });
        assert!(
            matches!(reply, Response::Event { .. }),
            "{}",
            reply.to_json()
        );
        // Creates skip the dead shard: the next id comes from shard 1's
        // stride (even ids), on what would have been shard 0's turn.
        assert_eq!(create(&m), "s-4");
    }
}
