//! Service-layer integration tests: the multi-tenant [`SessionManager`]
//! driving interleaved sessions over the v1 JSON wire protocol must be
//! *observationally identical* to isolated [`Session`]s run back-to-back —
//! byte-for-byte on the wire — including across snapshot-evict-restore
//! cycles. Plus a property test that no event sequence, however invalid,
//! can panic the service boundary.

use std::sync::Arc;

use proptest::prelude::*;

use webrobot::{
    Action, Event, Mode, Request, Response, ServiceConfig, Session, SessionConfig, SessionError,
    SessionManager, SiteBuilder, StepOutcome, Value,
};
use webrobot_dom::parse_html;

fn anchor_site(n: usize) -> Arc<webrobot::Site> {
    let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        format!("https://anchors{n}.test/"),
        parse_html(&format!("<html>{body}</html>")).unwrap(),
    );
    Arc::new(b.start_at(home).finish())
}

fn scrape(i: usize) -> Event {
    Event::Demonstrate(Action::ScrapeText(format!("/a[{i}]").parse().unwrap()))
}

/// One recorded step of an isolated reference session: the event sent and
/// everything the wire response is built from.
#[derive(Debug, Clone)]
struct Step {
    event: Event,
    outcome: Result<StepOutcome, SessionError>,
    mode: Mode,
    predictions: Vec<Action>,
    outputs: usize,
}

impl Step {
    /// The exact v1 response JSON the manager must produce for this step.
    fn expected_json(&self, session_id: &str) -> String {
        match &self.outcome {
            Ok(outcome) => Response::Event {
                session: session_id.to_string(),
                outcome: outcome.clone(),
                mode: self.mode,
                predictions: self.predictions.clone(),
                outputs: self.outputs,
            },
            Err(e) => Response::Error {
                code: e.code().to_string(),
                message: e.to_string(),
            },
        }
        .to_json()
    }
}

/// Drives ONE isolated session through the full demo→authorize→automate
/// workflow (with deliberate invalid events mixed in, so error responses
/// are differentially checked too) and records every step.
fn record_reference_script(site: Arc<webrobot::Site>) -> Vec<Step> {
    let mut session = Session::new(site, Value::Object(vec![]), SessionConfig::default());
    let mut steps: Vec<Step> = Vec::new();
    let mut apply = |session: &mut Session, event: Event| {
        let outcome = session.handle(event.clone());
        let step = Step {
            event,
            outcome,
            mode: session.mode(),
            predictions: session.predictions().to_vec(),
            outputs: session.browser().outputs().len(),
        };
        steps.push(step.clone());
        step
    };

    // Deliberate wrong-mode event up front: automation before anything
    // was demonstrated.
    apply(&mut session, Event::AutomateStep);
    apply(&mut session, scrape(1));
    apply(&mut session, scrape(2));
    // Deliberate out-of-range accept (the pre-redesign panic).
    apply(&mut session, Event::Accept { index: 99 });
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 64, "reference workflow did not converge");
        let step = match session.mode() {
            Mode::Authorize => apply(&mut session, Event::Accept { index: 0 }),
            Mode::Automate => apply(&mut session, Event::AutomateStep),
            // Automation ran off the end of the item list.
            Mode::Demonstrate | Mode::Done => break,
        };
        drop(step);
    }
    apply(&mut session, Event::Finish);
    // Every event after Finish is rejected — pin that on the wire too.
    apply(&mut session, Event::Interrupt);
    apply(&mut session, scrape(1));
    steps
}

/// How eviction is exercised while replaying interleaved scripts.
enum EvictionMode {
    /// Plenty of live capacity: no eviction at all.
    None,
    /// `max_live_sessions: 1`: every tenant switch is an LRU evict +
    /// restore.
    LruThrash,
    /// Explicit `evict()` of every session after every round: each event
    /// lands on a freshly restored snapshot.
    ExplicitEveryRound,
}

/// Replays the recorded scripts round-robin-interleaved through a manager
/// and asserts every wire response is byte-identical to the isolated
/// reference.
fn replay_interleaved(scripts: &[(Arc<webrobot::Site>, Vec<Step>)], eviction: EvictionMode) {
    let mut manager = SessionManager::new(ServiceConfig {
        max_live_sessions: match eviction {
            EvictionMode::LruThrash => 1,
            _ => 64,
        },
        ..ServiceConfig::default()
    });
    let mut ids = Vec::new();
    for (i, (site, _)) in scripts.iter().enumerate() {
        let name = format!("site{i}");
        manager.register_site(&name, site.clone(), Value::Object(vec![]));
        let reply = manager.handle_json(
            &Request::Create {
                site: name,
                input: None,
                deadline_ms: None,
            }
            .to_json(),
        );
        let id = format!("s-{}", i + 1);
        assert_eq!(
            reply,
            Response::Created {
                session: id.clone(),
                mode: Mode::Demonstrate
            }
            .to_json()
        );
        ids.push(id);
    }

    let rounds = scripts.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for (i, (_, script)) in scripts.iter().enumerate() {
            let Some(step) = script.get(round) else {
                continue;
            };
            let reply = manager.handle_json(
                &Request::Event {
                    session: ids[i].clone(),
                    event: step.event.clone(),
                }
                .to_json(),
            );
            assert_eq!(
                reply,
                step.expected_json(&ids[i]),
                "session {} diverged at round {round} on {:?}",
                ids[i],
                step.event
            );
        }
        if matches!(eviction, EvictionMode::ExplicitEveryRound) {
            for id in &ids {
                manager.evict(id.parse().unwrap());
            }
        }
    }

    let stats = manager.stats_v2();
    assert_eq!(stats.sessions.created as usize, scripts.len());
    match eviction {
        EvictionMode::None => assert_eq!(stats.residency.restores, 0, "no eviction expected"),
        _ => assert!(
            stats.residency.restores > 0,
            "eviction machinery was exercised"
        ),
    }
}

/// Acceptance: ≥2 concurrently interleaved sessions round-trip the full
/// demo→authorize→automate workflow over the v1 JSON protocol, matching
/// isolated sessions byte-for-byte on the wire.
#[test]
fn two_interleaved_sessions_match_isolated_byte_for_byte() {
    let scripts: Vec<_> = [5, 7]
        .into_iter()
        .map(|n| {
            let site = anchor_site(n);
            let script = record_reference_script(site.clone());
            (site, script)
        })
        .collect();
    // Both sessions really ran to completion: everything scraped.
    assert_eq!(scripts[0].1.last().unwrap().outputs, 5);
    assert_eq!(scripts[1].1.last().unwrap().outputs, 7);
    replay_interleaved(&scripts, EvictionMode::None);
}

/// The same interleaving squeezed through one live slot (every switch an
/// LRU evict/restore) and through explicit evict-every-round cycles:
/// still byte-identical.
#[test]
fn interleaving_is_unobservable_across_evict_restore_cycles() {
    let scripts: Vec<_> = [4, 5, 6, 8]
        .into_iter()
        .map(|n| {
            let site = anchor_site(n);
            let script = record_reference_script(site.clone());
            (site, script)
        })
        .collect();
    replay_interleaved(&scripts, EvictionMode::LruThrash);
    replay_interleaved(&scripts, EvictionMode::ExplicitEveryRound);
}

/// The outputs endpoint reports exactly what the isolated session
/// scraped, even when the session is evicted at the time of asking.
#[test]
fn outputs_survive_eviction() {
    let site = anchor_site(6);
    let mut isolated = Session::new(
        site.clone(),
        Value::Object(vec![]),
        SessionConfig::default(),
    );
    isolated.handle(scrape(1)).unwrap();
    isolated.handle(scrape(2)).unwrap();

    let mut manager = SessionManager::new(ServiceConfig::default());
    manager.register_site("anchors", site, Value::Object(vec![]));
    let id = manager.create("anchors", None, None).unwrap();
    for i in 1..=2 {
        let event = Request::Event {
            session: id.to_string(),
            event: scrape(i),
        };
        assert!(matches!(manager.handle(event), Response::Event { .. }));
    }
    assert!(manager.evict(id));
    assert!(manager.is_evicted(id));
    assert_eq!(
        manager.outputs(id).unwrap(),
        isolated.browser().outputs().to_vec()
    );
}

// ───────────────────── totality property ─────────────────────

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (1usize..10).prop_map(scrape), // indices beyond the site are replay errors
        (0usize..6).prop_map(|index| Event::Accept { index }),
        Just(Event::RejectAll),
        Just(Event::AutomateStep),
        Just(Event::Interrupt),
        Just(Event::Finish),
    ]
}

proptest! {
    /// No event sequence — valid, invalid, or after `finish` — panics the
    /// session or the service boundary, and the manager stays
    /// byte-identical to the isolated session on every reply.
    #[test]
    fn arbitrary_event_sequences_are_total_and_differential(
        events in proptest::collection::vec(event_strategy(), 0..16),
    ) {
        let site = anchor_site(4);
        let mut session = Session::new(site.clone(), Value::Object(vec![]), SessionConfig::default());
        let mut manager = SessionManager::new(ServiceConfig::default());
        manager.register_site("anchors", site, Value::Object(vec![]));
        manager.create("anchors", None, None).unwrap();
        let mut closed = false;
        for event in events {
            let outcome = session.handle(event.clone());
            if closed {
                prop_assert_eq!(&outcome, &Err(SessionError::SessionClosed));
            }
            if matches!(
                (&event, &outcome),
                (Event::Finish, Ok(StepOutcome::Finished))
            ) {
                closed = true;
            }
            let step = Step {
                event: event.clone(),
                outcome,
                mode: session.mode(),
                predictions: session.predictions().to_vec(),
                outputs: session.browser().outputs().len(),
            };
            let reply = manager.handle_json(
                &Request::Event { session: "s-1".to_string(), event }.to_json(),
            );
            prop_assert_eq!(reply, step.expected_json("s-1"));
        }
    }
}
