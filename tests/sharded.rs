//! Sharded-vs-single differential: a [`ShardedManager`] at any shard
//! count must be **byte-identical on the wire** to the plain, unsharded
//! [`SessionManager`] for every request a sequential client can issue —
//! creates (global `s-1, s-2, …` id sequence), events (valid and
//! invalid), outputs, close, malformed JSON, unknown sessions — and its
//! aggregated stats must equal the single manager's exactly, both in the
//! `stats` group of every `metrics` probe and through the library
//! accessor.
//!
//! The reference transcript is recorded once against the unsharded
//! manager, then replayed verbatim against shard counts {1, 2, 4}. This
//! is the service-layer analogue of `tests/differential.rs`: sharding is
//! a *deployment* choice, never a behavior change.

use std::sync::Arc;

use webrobot::{
    Event, Request, ServiceConfig, SessionManager, ShardedManager, Site, SiteBuilder, Value,
};
use webrobot_data::parse_json;
use webrobot_dom::parse_html;

fn anchor_site(n: usize) -> Arc<Site> {
    let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        format!("https://anchors{n}.test/"),
        parse_html(&format!("<html>{body}</html>")).unwrap(),
    );
    Arc::new(b.start_at(home).finish())
}

fn sites() -> Vec<(String, Arc<Site>)> {
    [4, 5, 6, 7, 8]
        .into_iter()
        .map(|n| (format!("site{n}"), anchor_site(n)))
        .collect()
}

fn scrape_req(session: &str, i: usize) -> String {
    Request::Event {
        session: session.to_string(),
        event: Event::Demonstrate(webrobot::Action::ScrapeText(
            format!("/a[{i}]").parse().unwrap(),
        )),
    }
    .to_json()
}

fn event_req(session: &str, event: Event) -> String {
    Request::Event {
        session: session.to_string(),
        event,
    }
    .to_json()
}

const METRICS: &str = r#"{"v":1,"kind":"metrics"}"#;

/// The `stats` group of a `metrics` reply: the counters, which two
/// deployments must agree on byte for byte (the rest of a scrape is
/// timings).
fn stats_group(reply: &str) -> String {
    parse_json(reply)
        .unwrap()
        .field("stats")
        .expect("metrics carry stats")
        .to_json()
}

/// The mode a response reports, for mode-driven clients.
fn mode_of(response: &str) -> Option<String> {
    parse_json(response)
        .ok()?
        .field("mode")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Records the full reference transcript — `(request, response)` pairs —
/// by driving N interleaved mode-driven sessions (with deliberate errors
/// and cross-cutting stats/outputs probes mixed in) against the
/// unsharded manager. A stats probe is a `metrics` request logged with
/// its reply's `stats` group.
fn record_reference(
    sites: &[(String, Arc<Site>)],
    cfg: &ServiceConfig,
    with_stats_probes: bool,
) -> Vec<(String, String)> {
    let mut manager = SessionManager::new(cfg.clone());
    for (name, site) in sites {
        manager.register_site(name, site.clone(), Value::Object(vec![]));
    }
    let mut log: Vec<(String, String)> = Vec::new();

    fn send(
        manager: &mut SessionManager,
        log: &mut Vec<(String, String)>,
        request: String,
    ) -> String {
        let response = manager.handle_json(&request);
        let logged = if request == METRICS {
            stats_group(&response)
        } else {
            response.clone()
        };
        log.push((request, logged));
        response
    }

    // Open one session per site, interleaved with requests that must
    // fail identically on every deployment.
    send(
        &mut manager,
        &mut log,
        r#"{"v": 1, "kind": "create", "site": "never-registered"}"#.to_string(),
    );
    let mut sessions: Vec<(String, String, usize, bool)> = Vec::new(); // (id, mode, demos, done)
    for (name, _) in sites {
        let reply = send(
            &mut manager,
            &mut log,
            Request::Create {
                site: name.clone(),
                input: None,
                deadline_ms: None,
            }
            .to_json(),
        );
        let id = parse_json(&reply)
            .unwrap()
            .field("session")
            .and_then(Value::as_str)
            .expect("created")
            .to_string();
        sessions.push((id, "demonstrate".to_string(), 0, false));
    }
    send(
        &mut manager,
        &mut log,
        event_req("s-99", Event::Finish), // unknown session
    );
    send(&mut manager, &mut log, "][ not json".to_string());
    send(
        &mut manager,
        &mut log,
        r#"{"v": 7, "kind": "metrics"}"#.to_string(), // unsupported version
    );

    // Round-robin the sessions through their full workflows.
    let mut round = 0usize;
    loop {
        let mut progressed = false;
        round += 1;
        for slot in &mut sessions {
            let (id, mode, demos, done) = (&slot.0, &slot.1, slot.2, slot.3);
            if done {
                continue;
            }
            let request = match mode.as_str() {
                "demonstrate" if demos < 2 => {
                    slot.2 += 1;
                    scrape_req(id, slot.2)
                }
                "demonstrate" => {
                    // Workflow complete: finish, probe outputs, close.
                    let id = id.clone();
                    send(&mut manager, &mut log, event_req(&id, Event::Finish));
                    send(
                        &mut manager,
                        &mut log,
                        Request::Outputs {
                            session: id.clone(),
                        }
                        .to_json(),
                    );
                    send(
                        &mut manager,
                        &mut log,
                        Request::Close {
                            session: id.clone(),
                        }
                        .to_json(),
                    );
                    // Post-close requests are unknown-session errors.
                    send(&mut manager, &mut log, event_req(&id, Event::Interrupt));
                    slot.3 = true;
                    progressed = true;
                    continue;
                }
                "authorize" => event_req(id, Event::Accept { index: 0 }),
                _ => event_req(id, Event::AutomateStep),
            };
            let reply = send(&mut manager, &mut log, request);
            if let Some(mode) = mode_of(&reply) {
                slot.1 = mode;
            }
            progressed = true;
        }
        if !progressed {
            break;
        }
        // A wrong-mode event and (optionally) a stats probe per round:
        // cross-session requests must interleave identically too.
        if round == 2 {
            send(
                &mut manager,
                &mut log,
                event_req(&sessions[0].0.clone(), Event::Accept { index: 99 }),
            );
        }
        if with_stats_probes {
            send(&mut manager, &mut log, METRICS.to_string());
        }
        assert!(round < 64, "reference workflow did not converge");
    }
    send(&mut manager, &mut log, METRICS.to_string());
    log
}

/// Replays the reference transcript against a `ShardedManager` and
/// asserts byte-identical responses at every step.
fn replay_sharded(
    sites: &[(String, Arc<Site>)],
    cfg: &ServiceConfig,
    transcript: &[(String, String)],
    shards: usize,
) -> ShardedManager {
    let manager = ShardedManager::new(cfg.clone(), shards);
    for (name, site) in sites {
        manager.register_site(name, site.clone(), Value::Object(vec![]));
    }
    for (step, (request, want)) in transcript.iter().enumerate() {
        let mut got = manager.handle_json(request);
        if request == METRICS {
            got = stats_group(&got);
        }
        assert_eq!(
            &got, want,
            "shards={shards} diverged at step {step} on request: {request}"
        );
    }
    manager
}

/// Acceptance: with headroom (no eviction anywhere) the entire wire
/// transcript — including interleaved stats probes — is byte-identical
/// at shard counts {1, 2, 4}, and the aggregated stats equal the single
/// manager's exactly.
#[test]
fn sharded_replies_are_byte_identical_and_stats_aggregate_exactly() {
    let sites = sites();
    let cfg = ServiceConfig::default();
    let transcript = record_reference(&sites, &cfg, true);
    // The transcript really covered the interesting surface.
    assert!(transcript
        .iter()
        .any(|(_, r)| r.contains(r#""outcome":"automated""#)));
    assert!(transcript
        .iter()
        .any(|(_, r)| r.contains(r#""code":"unknown_session""#)));
    assert!(transcript
        .iter()
        .any(|(_, r)| r.contains(r#""code":"bad_request""#)));
    assert!(transcript
        .iter()
        .any(|(_, r)| r.contains(r#""code":"unknown_site""#)));
    assert!(transcript
        .iter()
        .any(|(_, r)| r.contains(r#""code":"invalid_prediction""#)));
    assert!(transcript.iter().any(|(q, _)| q == METRICS));
    for shards in [1, 2, 4] {
        let sharded = replay_sharded(&sites, &cfg, &transcript, shards);
        // Typed aggregation matches the unsharded manager's final stats.
        let mut reference = SessionManager::new(cfg.clone());
        for (name, site) in &sites {
            reference.register_site(name, site.clone(), Value::Object(vec![]));
        }
        for (request, _) in &transcript {
            reference.handle_json(request);
        }
        assert_eq!(
            sharded.stats_v2(),
            reference.stats_v2(),
            "stats must aggregate exactly at shards={shards}"
        );
    }
}

/// Eviction pressure is a per-shard concern, but it must stay invisible
/// on the wire: with `max_live_sessions: 1` every shard thrashes its own
/// LRU, and the per-session responses are still byte-identical to the
/// unsharded manager under the same config (stats probes excluded — the
/// eviction *counters* legitimately differ across deployments).
#[test]
fn eviction_thrash_stays_unobservable_under_sharding() {
    let sites = sites();
    let cfg = ServiceConfig {
        max_live_sessions: 1,
        ..ServiceConfig::default()
    };
    let transcript: Vec<(String, String)> = record_reference(&sites, &cfg, false)
        .into_iter()
        .filter(|(request, _)| request != METRICS)
        .collect();
    for shards in [1, 2, 4] {
        let sharded = replay_sharded(&sites, &cfg, &transcript, shards);
        // Eviction-independent aggregates still match exactly.
        let stats = sharded.stats_v2();
        assert_eq!(stats.sessions.created as usize, sites.len());
        assert_eq!(stats.sessions.closed as usize, sites.len());
        if shards == 1 {
            assert!(
                stats.residency.restores > 0,
                "thrash exercised the eviction path"
            );
        }
    }
}
