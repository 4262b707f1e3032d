//! Skewed-workload differential: one pathological session must not
//! change what its shard-mates see on the wire.
//!
//! With the quantum scheduler, a session whose demonstrations trigger
//! long synthesis searches is parked between quanta while the other
//! sessions on the same shard are served. This test pins the *exactness*
//! half of that story: the light sessions' responses under contention —
//! one shard, a hammer thread driving a heavy session as fast as it can —
//! are **byte-identical** to an unloaded sequential run of the same
//! requests. (The latency half — light-session p99 under skew staying
//! within bounds of the uniform workload — is measured by the
//! `service_latency` bench group and gated via `BENCH_service.json`.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use webrobot::{Action, Event, Request, ServiceConfig, ShardedManager, Site, SiteBuilder, Value};
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

fn scrape(session: &str, i: usize) -> Request {
    Request::Event {
        session: session.to_string(),
        event: Event::Demonstrate(Action::ScrapeText(format!("/a[{i}]").parse().unwrap())),
    }
}

/// One shard, sliced aggressively so the heavy session parks often.
fn cfg() -> ServiceConfig {
    ServiceConfig {
        quantum: Duration::from_micros(200),
        ..ServiceConfig::default()
    }
}

const LIGHT_SESSIONS: usize = 3;

/// Builds the manager and creates the heavy session (`s-1`) plus the
/// light ones (`s-2`, …) in a fixed order, so ids line up across runs.
fn deployment() -> (ShardedManager, Vec<String>) {
    let m = ShardedManager::new(cfg(), 1);
    m.register_site("heavy", anchor_site(40), Value::Object(vec![]));
    m.register_site("light", anchor_site(6), Value::Object(vec![]));
    let create = |site: &str| {
        let reply = m.handle(Request::Create {
            site: site.to_string(),
            input: None,
            deadline_ms: None,
        });
        match reply {
            webrobot::Response::Created { session, .. } => session,
            other => panic!("create failed: {}", other.to_json()),
        }
    };
    assert_eq!(create("heavy"), "s-1");
    let light: Vec<String> = (0..LIGHT_SESSIONS).map(|_| create("light")).collect();
    (m, light)
}

/// The light sessions' request sequence: the standard workflow, round-
/// robined across sessions so contention gets every chance to interleave.
fn light_requests(light: &[String]) -> Vec<String> {
    let mut requests = Vec::new();
    for i in 1..=2 {
        for id in light {
            requests.push(scrape(id, i).to_json());
        }
    }
    for id in light {
        requests.push(
            Request::Event {
                session: id.clone(),
                event: Event::Accept { index: 0 },
            }
            .to_json(),
        );
    }
    for id in light {
        requests.push(
            Request::Outputs {
                session: id.clone(),
            }
            .to_json(),
        );
    }
    requests
}

#[test]
fn light_sessions_are_unaffected_by_a_pathological_shard_mate() {
    // Reference: the exact same light requests on an unloaded deployment.
    let (unloaded, light) = deployment();
    let requests = light_requests(&light);
    let reference: Vec<String> = requests.iter().map(|r| unloaded.handle_json(r)).collect();
    assert!(
        reference
            .iter()
            .any(|r| r.contains(r#""mode":"authorize""#) && r.contains(r#""outputs":3"#)),
        "the light workflow reaches authorization: {reference:?}"
    );

    // Loaded: same deployment, but a hammer thread drives the heavy
    // session as fast as it can on the same single shard the whole time.
    // `deployment` already asserted the fresh ids line up with the
    // reference run's, so the recorded request strings replay as-is.
    let (loaded, _light) = deployment();
    let stop = AtomicBool::new(false);
    let hammered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let hammer = {
            let loaded = &loaded;
            let (stop, hammered) = (&stop, &hammered);
            scope.spawn(move || {
                // Growing demonstrations over the 40-anchor page keep
                // each synthesis call expensive.
                for i in (1..=39).step_by(2).cycle() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let reply = loaded.handle(scrape("s-1", i));
                    assert!(!reply.to_json().contains("internal"), "{}", reply.to_json());
                    hammered.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // The light requests start once the hammer is through its first
        // request, so they always meet the contention they are about (a
        // late-scheduled hammer thread must not leave the shard idle).
        while hammered.load(Ordering::SeqCst) == 0 && !hammer.is_finished() {
            std::thread::yield_now();
        }
        for (k, request) in requests.iter().enumerate() {
            let got = loaded.handle_json(request);
            assert_eq!(
                got, reference[k],
                "light request {k} diverged under a pathological shard-mate: {request}"
            );
        }
        stop.store(true, Ordering::SeqCst);
        hammer.join().unwrap();
        assert!(
            hammered.load(Ordering::SeqCst) > 0,
            "the hammer never got a request through"
        );
    });
}
