//! Criterion bench for the multi-tenant session service: how many full
//! demo→authorize→automate workflows per second the session managers
//! sustain over the v1 JSON wire protocol, with sessions interleaved the
//! way concurrent front-ends would interleave them.
//!
//! Groups:
//!
//! - `service_wire` — the single-threaded [`SessionManager`] baseline;
//! - `sharded_service` — the same 8-session workload against a
//!   [`ShardedManager`] at shard counts 1/2/4, one driver thread per
//!   shard. On a multi-core runner the rows scale with the shard count;
//!   on one core they bound the routing/channel overhead instead.
//! - `service_evict` / `service_codec` — eviction thrash, two deep
//!   restores, and raw codec.
//! - `service_store` — O(dirty) checkpoint cost and the
//!   [`SegmentStore`](webrobot_service::SegmentStore) group-commit batch
//!   sweep.
//! - `service_latency` — per-request latency of a light session's
//!   `outputs` probe on a single quantum-scheduled shard, once under a
//!   *uniform* background load (another light session) and once under a
//!   *skewed* one (a pathological session whose growing demonstrations
//!   keep synthesis expensive). The committed `p99_ns` of the skewed row
//!   staying within the `benchdiff` ratio of the uniform row is the
//!   latency half of the quantum-scheduler story (the exactness half is
//!   `tests/skewed.rs`).
//!
//! Throughput is declared per group (`Throughput::Elements(sessions)`),
//! so the committed `BENCH_service.json` carries explicit
//! `elements_per_sec` — the sessions-per-second baselines.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use webrobot_browser::{Site, SiteBuilder};
use webrobot_data::parse_json;
use webrobot_dom::parse_html;
use webrobot_interact::{Event, Mode, StepOutcome};
use webrobot_lang::{Action, Value};
use webrobot_semantics::action_consistent;
use webrobot_service::{
    Request, Response, ServiceConfig, SessionId, SessionManager, ShardedManager,
};

const ITEMS_PER_SITE: usize = 6;

fn anchor_site(n: usize) -> Arc<Site> {
    let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        "https://bench.test/",
        parse_html(&format!("<html>{body}</html>")).unwrap(),
    );
    Arc::new(b.start_at(home).finish())
}

/// A manager with `max_live` live slots over the anchor site.
fn manager(max_live: usize) -> SessionManager {
    let mut m = SessionManager::new(
        ServiceConfig::builder()
            .max_live_sessions(max_live)
            .build()
            .expect("valid bench config"),
    );
    m.register_site(
        "anchors",
        anchor_site(ITEMS_PER_SITE),
        Value::Object(vec![]),
    );
    m
}

fn sharded_manager(shards: usize) -> ShardedManager {
    let m = ShardedManager::new(ServiceConfig::default(), shards);
    m.register_site(
        "anchors",
        anchor_site(ITEMS_PER_SITE),
        Value::Object(vec![]),
    );
    m
}

fn event_request(session: &str, event: Event) -> String {
    Request::Event {
        session: session.to_string(),
        event,
    }
    .to_json()
}

fn scrape(i: usize) -> Event {
    Event::Demonstrate(Action::ScrapeText(format!("/a[{i}]").parse().unwrap()))
}

/// One wire client: picks its next request from the mode the previous
/// response reported, exactly as a front-end state machine would. Generic
/// over the transport (`send` is "JSON string in → JSON string out"), so
/// the same state machine drives a `&mut SessionManager` and a shared
/// `&ShardedManager`.
struct Client {
    session: String,
    mode: String,
    demonstrated: usize,
    done: bool,
}

impl Client {
    fn open(send: &mut impl FnMut(&str) -> String) -> Client {
        let reply = send(
            &Request::Create {
                site: "anchors".to_string(),
                input: None,
                deadline_ms: None,
            }
            .to_json(),
        );
        let reply = parse_json(&reply).expect("valid response json");
        Client {
            session: reply
                .field("session")
                .and_then(Value::as_str)
                .expect("created")
                .to_string(),
            mode: "demonstrate".to_string(),
            demonstrated: 0,
            done: false,
        }
    }

    /// Sends one request; returns `false` once the session is closed.
    fn step(&mut self, send: &mut impl FnMut(&str) -> String) -> bool {
        if self.done {
            return false;
        }
        let event = match self.mode.as_str() {
            "demonstrate" if self.demonstrated < 2 => {
                self.demonstrated += 1;
                scrape(self.demonstrated)
            }
            // Automation ran the task to the end: finish and close.
            "demonstrate" => {
                send(&event_request(&self.session, Event::Finish));
                send(
                    &Request::Close {
                        session: self.session.clone(),
                    }
                    .to_json(),
                );
                self.done = true;
                return false;
            }
            "authorize" => Event::Accept { index: 0 },
            _ => Event::AutomateStep,
        };
        let reply = send(&event_request(&self.session, event));
        let reply = parse_json(&reply).expect("valid response json");
        assert_eq!(
            reply.field("status").and_then(Value::as_str),
            Some("ok"),
            "{reply}"
        );
        self.mode = reply
            .field("mode")
            .and_then(Value::as_str)
            .expect("mode")
            .to_string();
        true
    }
}

/// Runs `sessions` full workflows round-robin-interleaved over the wire.
fn run_interleaved(send: &mut impl FnMut(&str) -> String, sessions: usize) {
    let mut clients: Vec<Client> = (0..sessions).map(|_| Client::open(send)).collect();
    loop {
        let mut progressed = false;
        for client in &mut clients {
            progressed |= client.step(send);
        }
        if !progressed {
            break;
        }
    }
}

/// Full interleaved sessions per second through the JSON boundary — the
/// single-threaded headline throughput number.
fn bench_interleaved(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_wire");
    group.sample_size(20);
    for sessions in [2usize, 8] {
        group.throughput(Throughput::Elements(sessions as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("interleaved_s{sessions}")),
            &sessions,
            |bench, &sessions| {
                bench.iter_batched(
                    || manager(64),
                    |mut m| {
                        run_interleaved(&mut |r| m.handle_json(r), sessions);
                        assert_eq!(m.stats_v2().sessions.closed as usize, sessions);
                        m
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// The same 8-session workload against a [`ShardedManager`]: one driver
/// thread per shard, each round-robin-interleaving its share of sessions
/// through the shared `&self` JSON boundary. The manager (and its shard
/// threads) lives across iterations, so the rows measure steady-state
/// routed throughput, not thread spawn/join.
fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_service");
    group.sample_size(20);
    const SESSIONS: usize = 8;
    group.throughput(Throughput::Elements(SESSIONS as u64));
    for shards in [1usize, 2, 4] {
        let m = sharded_manager(shards);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("shards_{shards}_s{SESSIONS}")),
            &shards,
            |bench, &shards| {
                bench.iter(|| {
                    let closed_before = m.stats_v2().sessions.closed;
                    std::thread::scope(|scope| {
                        for d in 0..shards {
                            let share = SESSIONS / shards + usize::from(d < SESSIONS % shards);
                            let m = &m;
                            scope.spawn(move || {
                                run_interleaved(&mut |r| m.handle_json(r), share);
                            });
                        }
                    });
                    assert_eq!(
                        (m.stats_v2().sessions.closed - closed_before) as usize,
                        SESSIONS
                    );
                });
            },
        );
    }
    group.finish();
}

/// A 10-record two-field directory (the nested-loop shape of the paper's
/// scraping tasks): synthesis here is an order of magnitude heavier than
/// on the flat anchor site, which is exactly the regime where restoration
/// strategy matters.
fn nested_site() -> Arc<Site> {
    let body: String = (1..=10)
        .map(|i| {
            format!(
                "<div class='person'><h3>Name {i}</h3>\
                 <div class='phone'>555-{i:04}</div></div>"
            )
        })
        .collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        "https://people.bench.test/",
        parse_html(&format!("<html><body>{body}</body></html>")).unwrap(),
    );
    Arc::new(b.start_at(home).finish())
}

/// A session on suite benchmark `id`, driven the way the repository
/// benchmark's durable-churn sessions are: an oracle user follows the
/// recording (demonstrating, accepting the prediction that matches it,
/// automating while the first prediction matches) and stops after three
/// quarters of the recorded actions.
fn churn_session(id: u32) -> (SessionManager, SessionId) {
    let bench = webrobot_benchmarks::benchmark(id).expect("suite benchmark");
    let trace = bench.record().expect("ground truth records").trace;
    let stop = trace.len() - trace.len() / 4;
    let mut m = SessionManager::new(ServiceConfig::default());
    m.register_site("churn", bench.site.clone(), bench.input.clone());
    let session = m.create("churn", None, None).expect("session opens");
    let (mut pos, mut mode, mut predictions) = (0, Mode::Demonstrate, Vec::new());
    for _ in 0..trace.len() * 4 + 64 {
        if pos == stop {
            return (m, session);
        }
        let approves = |p: &Action| action_consistent(p, &trace.actions()[pos], &trace.doms()[pos]);
        let event = match mode {
            Mode::Authorize => match predictions.iter().position(approves) {
                Some(index) => Event::Accept { index },
                None => Event::RejectAll,
            },
            Mode::Automate => match predictions.first() {
                Some(p) if approves(p) => Event::AutomateStep,
                _ => Event::Interrupt,
            },
            _ => Event::Demonstrate(trace.actions()[pos].clone()),
        };
        let advances = matches!(event, Event::Demonstrate(_) | Event::Accept { .. });
        let request = Request::Event {
            session: session.to_string(),
            event,
        };
        let Response::Event {
            outcome,
            mode: next_mode,
            predictions: offered,
            ..
        } = m.handle(request)
        else {
            panic!("oracle events are valid");
        };
        if advances || matches!(outcome, StepOutcome::Automated(_)) {
            pos += 1;
        }
        (mode, predictions) = (next_mode, offered);
    }
    panic!("the oracle did not reach b{id}'s stop point");
}

/// Eviction/restoration cost. A restore replays the history
/// observe-only and adopts the snapshot's engine digest, so it pays
/// replay and no synthesis:
///
/// - `thrash_s4` — the end-to-end interleaved workload squeezed through
///   a single live slot, so every tenant switch is an evict + restore.
///   Histories stay short (≤ 6 actions on the flat site), so this bounds
///   the *worst-case floor* of each restore.
/// - `restore_nested_h16` — one evict + restore cycle (driven over the
///   wire as `evict` + `outputs`) of a session 16 actions deep into the
///   nested two-field directory.
/// - `restore_b15_stop` — the same cycle for the heaviest session of the
///   repository benchmark's durable-churn pool: suite benchmark b15 at
///   its stop point, whose engine digest holds about 126 items.
fn bench_evict_thrash(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_evict");
    group.sample_size(200);
    let sessions = 4usize;
    group.throughput(Throughput::Elements(sessions as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("thrash_s4"),
        &sessions,
        |bench, &sessions| {
            bench.iter_batched(
                || manager(1),
                |mut m| {
                    run_interleaved(&mut |r| m.handle_json(r), sessions);
                    let stats = m.stats_v2();
                    assert_eq!(stats.sessions.closed as usize, sessions);
                    assert!(stats.residency.restores > 0, "eviction path exercised");
                    m
                },
                criterion::BatchSize::LargeInput,
            );
        },
    );

    group.throughput(Throughput::Elements(1));
    {
        // One session, demonstrated 4 actions and automated to a history
        // of 16, held by a manager with headroom; each iteration forces
        // one evict + one transparent restore through the wire boundary.
        let mut m = SessionManager::new(ServiceConfig::default());
        m.register_site("people", nested_site(), Value::Object(vec![]));
        assert!(m
            .handle_json(r#"{"v": 1, "kind": "create", "site": "people"}"#)
            .contains("\"ok\""));
        for (record, field) in (1..=2).flat_map(|r| [(r, "h3[1]"), (r, "div[1]")]) {
            let reply = m.handle_json(&event_request(
                "s-1",
                Event::Demonstrate(Action::ScrapeText(
                    format!("/body[1]/div[{record}]/{field}").parse().unwrap(),
                )),
            ));
            assert!(reply.contains("\"ok\""), "{reply}");
        }
        let mut history = 4;
        let mut mode = "authorize".to_string();
        while history < 16 {
            let event = if mode == "authorize" {
                Event::Accept { index: 0 }
            } else {
                Event::AutomateStep
            };
            let reply = m.handle_json(&event_request("s-1", event));
            assert!(reply.contains(r#""status":"ok""#), "{reply}");
            mode = parse_json(&reply)
                .unwrap()
                .field("mode")
                .and_then(Value::as_str)
                .unwrap()
                .to_string();
            history += 1;
        }
        let outputs_req = Request::Outputs {
            session: "s-1".to_string(),
        }
        .to_json();
        group.bench_with_input(
            BenchmarkId::from_parameter("restore_nested_h16"),
            &(),
            |bench, ()| {
                bench.iter(|| {
                    assert!(m.evict("s-1".parse().unwrap()));
                    let reply = m.handle_json(&outputs_req);
                    assert!(reply.contains(r#""status":"ok""#), "{reply}");
                });
            },
        );
    }
    {
        let (mut m, session) = churn_session(15);
        let outputs_req = Request::Outputs {
            session: session.to_string(),
        }
        .to_json();
        group.bench_with_input(
            BenchmarkId::from_parameter("restore_b15_stop"),
            &(),
            |bench, ()| {
                bench.iter(|| {
                    assert!(m.evict(session));
                    let reply = m.handle_json(&outputs_req);
                    assert!(reply.contains(r#""status":"ok""#), "{reply}");
                });
            },
        );
    }
    group.finish();
}

/// Light-session request latency on one quantum-scheduled shard, uniform
/// vs skewed background load.
///
/// The probe is an `outputs` read on a pre-built light session — no
/// synthesis, so every nanosecond above the uniform row is queueing
/// delay behind the background tenant's current quantum. Without
/// slicing, the skewed row's p99 would be a whole pathological synthesis
/// call; with it, the wait is bounded by one quantum plus the worklist
/// item in flight.
fn bench_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_latency");
    // A deep sample pool: the rows exist for their `p99_ns`, and a
    // nearest-rank p99 needs many samples before it stops being the max.
    group.sample_size(2000);
    for (label, heavy) in [("light_probe_uniform", false), ("light_probe_skewed", true)] {
        // One shard, sliced aggressively, shared by the probe session and
        // the background tenant.
        let m = ShardedManager::new(
            ServiceConfig {
                quantum: std::time::Duration::from_micros(50),
                ..ServiceConfig::default()
            },
            1,
        );
        m.register_site("light", anchor_site(ITEMS_PER_SITE), Value::Object(vec![]));
        m.register_site("heavy", anchor_site(40), Value::Object(vec![]));
        assert!(m
            .handle_json(r#"{"v": 1, "kind": "create", "site": "light"}"#)
            .contains("\"ok\""));
        for i in 1..=2 {
            let reply = m.handle_json(&event_request("s-1", scrape(i)));
            assert!(reply.contains("\"ok\""), "{reply}");
        }
        let probe = Request::Outputs {
            session: "s-1".to_string(),
        }
        .to_json();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Background tenant: fresh session per pass so the workload
            // stays stationary however long the measurement runs. The
            // heavy pass stops at 12 demonstrations — synthesis stays
            // expensive, but the *per-item* cost (the scheduler's
            // preemption floor: items are atomic) stays bounded.
            let (site, anchors) = if heavy { ("heavy", 24) } else { ("light", 6) };
            let (m, stop) = (&m, &stop);
            let hammer = scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let created = m.handle_json(&format!(
                        r#"{{"v": 1, "kind": "create", "site": "{site}"}}"#
                    ));
                    assert!(created.contains("\"ok\""), "{created}");
                    let session: String = created
                        .split(r#""session":""#)
                        .nth(1)
                        .unwrap()
                        .chars()
                        .take_while(|c| *c != '"')
                        .collect();
                    for i in (1..anchors).step_by(2) {
                        if stop.load(std::sync::atomic::Ordering::SeqCst) {
                            break;
                        }
                        let reply = m.handle_json(&event_request(&session, scrape(i)));
                        assert!(reply.contains("\"ok\""), "{reply}");
                    }
                    m.handle_json(
                        &Request::Close {
                            session: session.clone(),
                        }
                        .to_json(),
                    );
                }
            });
            group.bench_with_input(
                BenchmarkId::from_parameter(label),
                &probe,
                |bench, probe| {
                    bench.iter(|| {
                        let reply = m.handle_json(std::hint::black_box(probe));
                        assert!(reply.contains(r#""status":"ok""#), "{reply}");
                        reply
                    });
                },
            );
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            hammer.join().unwrap();
        });
    }
    group.finish();
}

/// Checkpoint and snapshot-store cost shapes — the log-structured store
/// story:
///
/// - `checkpoint_dirty1_of_64` — a 64-tenant manager where each
///   iteration dirties exactly one session (a create), checkpoints, and
///   closes it. The checkpoint writes the one dirty record plus shard
///   metadata: O(dirty), not O(sessions).
/// - `segment_commit_ops_{1,8,64}` — 64 kilobyte-record puts plus a
///   final flush straight into a [`SegmentStore`], with the group-commit
///   batch threshold swept from fsync-per-op to one fsync per batch of
///   64. The spread between the rows is precisely the cost the deferred
///   COMMIT amortizes.
fn bench_store(c: &mut Criterion) {
    use webrobot_service::{MemoryStore, SegmentConfig, SegmentStore, SnapshotStore};

    let mut group = c.benchmark_group("service_store");
    group.sample_size(20);

    {
        let mut m = SessionManager::with_store(
            ServiceConfig::builder()
                .max_live_sessions(128)
                .build()
                .expect("valid bench config"),
            Box::new(MemoryStore::new()),
        )
        .unwrap();
        m.register_site(
            "anchors",
            anchor_site(ITEMS_PER_SITE),
            Value::Object(vec![]),
        );
        for s in 1..=64 {
            let reply = m.handle_json(r#"{"v": 1, "kind": "create", "site": "anchors"}"#);
            assert!(reply.contains("\"ok\""), "{reply}");
            for i in 1..=2 {
                let reply = m.handle_json(&event_request(&format!("s-{s}"), scrape(i)));
                assert!(reply.contains("\"ok\""), "{reply}");
            }
        }
        // Settle: after this checkpoint all 64 base sessions are clean.
        assert!(m
            .handle_json(r#"{"v": 1, "kind": "checkpoint"}"#)
            .contains("\"ok\""));

        let id = BenchmarkId::from_parameter("checkpoint_dirty1_of_64");
        group.bench_with_input(id, &(), |bench, ()| {
            bench.iter(|| {
                // Exactly one dirty session per checkpoint: a fresh
                // create (closed again afterwards, so the population
                // stays 64 + 1 transient).
                let created = m.handle_json(r#"{"v": 1, "kind": "create", "site": "anchors"}"#);
                assert!(created.contains("\"ok\""), "{created}");
                let session: String = created
                    .split(r#""session":""#)
                    .nth(1)
                    .unwrap()
                    .chars()
                    .take_while(|c| *c != '"')
                    .collect();
                let reply = m.handle_json(r#"{"v": 1, "kind": "checkpoint"}"#);
                assert!(reply.contains(r#""sessions":65"#), "{reply}");
                m.handle_json(&Request::Close { session }.to_json());
            });
        });
    }

    // A representative kilobyte-scale record (what one mid-workflow
    // session encodes to, order-of-magnitude-wise).
    let record = parse_json(&format!(
        r#"{{"v": 1, "kind": "bench", "payload": "{}"}}"#,
        "x".repeat(1024)
    ))
    .unwrap();
    for ops in [1usize, 8, 64] {
        let dir = std::env::temp_dir().join(format!(
            "webrobot-bench-segment-{}-{ops}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SegmentStore::with_config(
            SegmentConfig {
                commit_ops: ops,
                commit_bytes: u64::MAX,
                commit_interval: std::time::Duration::from_secs(3600),
            },
            &dir,
        )
        .unwrap();
        group.throughput(Throughput::Elements(64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("segment_commit_ops_{ops}")),
            &(),
            |bench, ()| {
                bench.iter(|| {
                    for i in 0..64 {
                        store.put(&format!("k-{i}"), &record).unwrap();
                    }
                    store.flush().unwrap();
                });
            },
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Raw codec cost: decode a demonstrate request and re-encode the
/// response-sized reply, no session behind it.
fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_codec");
    let raw = event_request("s-1", scrape(3));
    group.bench_with_input(
        BenchmarkId::from_parameter("request_roundtrip"),
        &raw,
        |bench, raw| {
            bench.iter(|| {
                let request = Request::from_json(std::hint::black_box(raw)).unwrap();
                std::hint::black_box(request.to_json())
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_interleaved,
    bench_sharded,
    bench_evict_thrash,
    bench_latency,
    bench_store,
    bench_codec
);
criterion_main!(benches);
