//! Durable sessions end-to-end: a [`SessionManager`] backed by a
//! [`SegmentStore`] survives a **simulated process restart** mid-workflow.
//!
//! The first "process" opens a session, demonstrates two scrapes,
//! authorizes one prediction, checkpoints, and is dropped — exactly what
//! a deploy or crash-after-checkpoint looks like. The second "process"
//! reopens the same store directory, re-registers the site, and carries
//! the session to completion as if nothing happened: same predictions,
//! same outputs, same id sequence (the store also carries the manager's
//! counters, so even the `stats` group of a `metrics` scrape continues
//! seamlessly).
//!
//! Every request/response printed is a plain JSON string of the v1 wire
//! protocol; the store is a segment log in the printed directory whose
//! records are that same JSON (shapes documented in `PROTOCOL.md`
//! § Durability).
//!
//! ```text
//! cargo run --example durable_service
//! ```

use std::error::Error;
use std::sync::Arc;

use webrobot::{SegmentStore, ServiceConfig, SessionManager, SiteBuilder, Value};
use webrobot_data::parse_json;
use webrobot_dom::parse_html;

fn site() -> Arc<webrobot::Site> {
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        "https://directory.test/",
        parse_html(
            "<html><body>\
             <div class='person'><h3>Ada Lovelace</h3></div>\
             <div class='person'><h3>Grace Hopper</h3></div>\
             <div class='person'><h3>Alan Turing</h3></div>\
             <div class='person'><h3>Barbara Liskov</h3></div>\
             <div class='person'><h3>Leslie Lamport</h3></div>\
             </body></html>",
        )
        .expect("static page parses"),
    );
    Arc::new(b.start_at(home).finish())
}

fn send(manager: &mut SessionManager, request: &str) -> String {
    println!("  → {request}");
    let reply = manager.handle_json(request);
    println!("  ← {reply}\n");
    reply
}

fn open_manager(dir: &std::path::Path) -> Result<SessionManager, Box<dyn Error>> {
    let store = Box::new(SegmentStore::open(dir)?);
    let mut manager = SessionManager::with_store(ServiceConfig::default(), store)?;
    manager.register_site("directory", site(), Value::Object(vec![]));
    Ok(manager)
}

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join("webrobot-durable-service-example");
    let _ = std::fs::remove_dir_all(&dir);
    println!("snapshot store: {}\n", dir.display());

    // ── process #1: demonstrate, authorize, checkpoint, die ──
    println!("── process #1 ──");
    let mut manager = open_manager(&dir)?;
    send(
        &mut manager,
        r#"{"v": 1, "kind": "create", "site": "directory"}"#,
    );
    for i in 1..=2 {
        send(
            &mut manager,
            &format!(
                r#"{{"v": 1, "kind": "event", "session": "s-1", "event":
                   {{"type": "demonstrate", "action":
                   {{"op": "scrape_text", "selector": "/body[1]/div[{i}]/h3[1]"}}}}}}"#,
            ),
        );
    }
    let reply = send(
        &mut manager,
        r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 0}}"#,
    );
    assert!(reply.contains(r#""outputs":3"#), "{reply}");
    let reply = send(&mut manager, r#"{"v": 1, "kind": "checkpoint"}"#);
    assert!(reply.contains(r#""kind":"checkpointed""#), "{reply}");
    drop(manager); // process exit (dropping also flushes, belt and braces)
    println!("…process #1 exited; session s-1 lives only in the store…\n");

    // ── process #2: reopen the store and continue seamlessly ──
    println!("── process #2 ──");
    let mut manager = open_manager(&dir)?;
    let reply = send(
        &mut manager,
        r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 0}}"#,
    );
    assert!(
        reply.contains(r#""mode":"automate""#),
        "the restored session remembers it was one accept away from automation: {reply}"
    );
    loop {
        let reply = send(
            &mut manager,
            r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "automate_step"}}"#,
        );
        if !reply.contains(r#""mode":"automate""#) {
            break; // the program ran off the end of the directory
        }
    }
    let outputs = send(
        &mut manager,
        r#"{"v": 1, "kind": "outputs", "session": "s-1"}"#,
    );
    let parsed = parse_json(&outputs).expect("valid response json");
    let names = parsed
        .field("outputs")
        .and_then(Value::as_array)
        .expect("outputs array");
    assert_eq!(names.len(), 5, "all five people scraped across the restart");

    // The id sequence continues where process #1 stopped.
    let reply = send(
        &mut manager,
        r#"{"v": 1, "kind": "create", "site": "directory"}"#,
    );
    assert!(reply.contains(r#""session":"s-2""#), "{reply}");
    send(
        &mut manager,
        r#"{"v": 1, "kind": "close", "session": "s-1"}"#,
    );
    send(
        &mut manager,
        r#"{"v": 1, "kind": "close", "session": "s-2"}"#,
    );
    let metrics = send(&mut manager, r#"{"v": 1, "kind": "metrics"}"#);
    assert!(
        metrics.contains(r#""sessions":{"created":2,"closed":2"#),
        "counters survived the restart: {metrics}"
    );

    drop(manager);
    let _ = std::fs::remove_dir_all(&dir);
    println!("the manager survived its restart; outputs and counters intact");
    Ok(())
}
