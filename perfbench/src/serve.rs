//! The server child: the library stack assembled from public
//! constructors, the same path the `webrobot-server` binary takes, with
//! the site catalog and live-session cap chosen by the workload.
//!
//! Untraced, it is served by `webrobot_server::Server`. Traced, a frame
//! loop of the benchmark's own does what `Server` does per frame —
//! `read_frame`, `Request::from_json`, `ShardedManager::handle`,
//! `Response::to_json`, `write_frame`, `record_transport` — and times each
//! call; a wrapper around the public `SnapshotStore` trait times the
//! store. Spans are summed in memory and printed as one `trace` line when
//! the server drains.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use webrobot_data::{parse_json, Value};
use webrobot_server::{read_frame, write_frame, Server};
use webrobot_service::{
    Request, Response, SegmentConfig, SegmentHandle, SegmentStore, ServiceConfig, ShardedManager,
    SnapshotStore, StoreError,
};
use webrobot_store::StoreIoStats;

use crate::stats::Tally;
use crate::workload::{self, Workload, SHARDS};

pub struct ServeOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub store: Option<PathBuf>,
    pub traced: bool,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Call counts and summed nanoseconds for one span name.
#[derive(Default)]
struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    fn add(&self, d: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(nanos(d), Ordering::Relaxed);
    }

    fn json(&self, name: &str) -> String {
        format!(
            "\"{name}\": [{}, {}]",
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed)
        )
    }
}

/// Spans of the store wrapper.
#[derive(Default)]
struct StoreSpans {
    put: Span,
    get: Span,
    remove: Span,
    flush: Span,
    /// Serialized bytes of the records handed to `put`.
    record_bytes: AtomicU64,
}

/// A `SnapshotStore` that times every call into the segment store it
/// wraps.
#[derive(Clone)]
struct TimedStore {
    inner: SegmentHandle,
    spans: Arc<StoreSpans>,
}

impl std::fmt::Debug for TimedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TimedStore")
    }
}

impl SnapshotStore for TimedStore {
    fn put(&mut self, key: &str, record: &Value) -> Result<(), StoreError> {
        self.spans
            .record_bytes
            .fetch_add(record.to_json().len() as u64, Ordering::Relaxed);
        let t = Instant::now();
        let r = self.inner.put(key, record);
        self.spans.put.add(t.elapsed());
        r
    }

    fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
        let t = Instant::now();
        let r = self.inner.get(key);
        self.spans.get.add(t.elapsed());
        r
    }

    fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        let t = Instant::now();
        let r = self.inner.remove(key);
        self.spans.remove.add(t.elapsed());
        r
    }

    fn keys(&self) -> Result<Vec<String>, StoreError> {
        self.inner.keys()
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        let t = Instant::now();
        let r = self.inner.flush();
        self.spans.flush.add(t.elapsed());
        r
    }

    fn io_stats(&self) -> StoreIoStats {
        self.inner.io_stats()
    }
}

/// Spans of the traced frame loop, per request.
#[derive(Default)]
struct FrameSpans {
    transport: Span,
    decode: Span,
    handle: Span,
    encode: Span,
    write: Span,
    reply_bytes: AtomicU64,
    /// `ShardedManager::handle` on event requests, by event type.
    events: Mutex<Tally>,
    /// `ShardedManager::handle` on `metrics` requests.
    scrape: Span,
}

/// Runs the server child until a client drains it.
pub fn serve(opts: &ServeOpts) -> Result<(), String> {
    let params = opts.workload.params(opts.seconds);
    let cfg = ServiceConfig::builder()
        .max_live_sessions(params.max_live)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let store_spans = Arc::new(StoreSpans::default());
    let mut open_ns = 0;
    let manager = match &opts.store {
        Some(dir) => {
            let t = Instant::now();
            // Group commit only at `flush`, that is at each checkpoint: with
            // the default sync every eighth write, every p99 measured the
            // shared disk's sync latency, which swung by 40-80% between
            // runs of the same code.
            let commit_at_flush = SegmentConfig {
                commit_ops: usize::MAX,
                commit_bytes: u64::MAX,
                commit_interval: Duration::MAX,
                ..SegmentConfig::default()
            };
            let handle = SegmentStore::with_config(commit_at_flush, dir)
                .map_err(|e| format!("open store {}: {e}", dir.display()))?
                .into_shared();
            open_ns = nanos(t.elapsed());
            let stores: Vec<Box<dyn SnapshotStore>> = (0..SHARDS)
                .map(|_| -> Box<dyn SnapshotStore> {
                    if opts.traced {
                        Box::new(TimedStore {
                            inner: handle.clone(),
                            spans: store_spans.clone(),
                        })
                    } else {
                        Box::new(handle.clone())
                    }
                })
                .collect();
            ShardedManager::with_stores(cfg, stores).map_err(|e| format!("reopen store: {e}"))?
        }
        None => ShardedManager::new(cfg, SHARDS),
    };
    for (name, site, input) in workload::sites(opts.workload, opts.seed) {
        manager.register_site(name, site, input);
    }
    if !opts.traced {
        let server = Server::bind(manager, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        announce(&format!("listening {addr}"))?;
        return server.run().map_err(|e| format!("serve: {e}"));
    }

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    announce(&format!("listening {addr}"))?;
    let spans = FrameSpans::default();
    let draining = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            stream.set_nodelay(true).ok();
            let (manager, spans, draining) = (&manager, &spans, &draining);
            scope.spawn(move || serve_traced(stream, manager, spans, draining, addr));
        }
    });
    let store = &store_spans;
    let events: Vec<String> = spans
        .events
        .lock()
        .expect("span table lock")
        .iter()
        .map(|(n, c, d)| format!("\"{n}\": [{c}, {}]", nanos(d)))
        .collect();
    announce(&format!(
        "trace {{{}, {}, {}, {}, {}, {}, \"reply_bytes\": {}, \"events\": {{{}}}, \
         {}, {}, {}, {}, \"record_bytes\": {}, \"open_ns\": {open_ns}}}",
        spans.transport.json("transport"),
        spans.decode.json("decode"),
        spans.handle.json("handle"),
        spans.encode.json("encode"),
        spans.write.json("write"),
        spans.scrape.json("scrape"),
        spans.reply_bytes.load(Ordering::Relaxed),
        events.join(", "),
        store.put.json("put"),
        store.get.json("get"),
        store.remove.json("remove"),
        store.flush.json("flush"),
        store.record_bytes.load(Ordering::Relaxed),
    ))
}

fn announce(line: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// One traced connection: the per-frame work of `webrobot_server`, with a
/// span around each library call.
fn serve_traced(
    mut stream: TcpStream,
    manager: &ShardedManager,
    spans: &FrameSpans,
    draining: &AtomicBool,
    addr: std::net::SocketAddr,
) {
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let started = Instant::now();
        let text = String::from_utf8_lossy(&frame);
        if is_drain(&text) {
            draining.store(true, Ordering::SeqCst);
            let sessions = match manager.handle(Request::Checkpoint) {
                Response::Checkpointed { sessions } => sessions,
                _ => 0,
            };
            let reply = format!(r#"{{"v":1,"kind":"drained","sessions":{sessions}}}"#);
            write_frame(&mut stream, reply.as_bytes()).ok();
            // Wake the accept loop so the server can return.
            TcpStream::connect(addr).ok();
            break;
        }
        let t = Instant::now();
        let decoded = Request::from_json(&text);
        spans.decode.add(t.elapsed());
        let response = match decoded {
            Ok(request) => {
                let event = match &request {
                    Request::Event { event, .. } => Some(event.name()),
                    _ => None,
                };
                let scrape = matches!(request, Request::Metrics);
                let t = Instant::now();
                let response = manager.handle(request);
                let took = t.elapsed();
                spans.handle.add(took);
                // Only events the session carried out: the ones the client
                // keeps, and the traced replay repeats.
                let carried_out = !matches!(response, Response::Error { .. });
                if let Some(name) = event.filter(|_| carried_out) {
                    spans
                        .events
                        .lock()
                        .expect("span table lock")
                        .add(name, 1, took);
                }
                if scrape {
                    spans.scrape.add(took);
                }
                response
            }
            Err(e) => Response::from(e),
        };
        let t = Instant::now();
        let reply = response.to_json();
        spans.encode.add(t.elapsed());
        spans
            .reply_bytes
            .fetch_add(reply.len() as u64, Ordering::Relaxed);
        let t = Instant::now();
        let written = write_frame(&mut stream, reply.as_bytes());
        spans.write.add(t.elapsed());
        let transport = started.elapsed();
        manager.metrics().record_transport(transport);
        spans.transport.add(transport);
        if written.is_err() {
            break;
        }
    }
}

fn is_drain(text: &str) -> bool {
    matches!(
        parse_json(text).ok().as_ref().and_then(|v| v.field("kind")),
        Some(Value::Str(kind)) if kind == "drain"
    )
}
