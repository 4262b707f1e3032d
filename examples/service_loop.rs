//! The session *service* end-to-end: two tenants drive interleaved
//! demo→authorize→automate workflows against one [`SessionManager`]
//! entirely over the v1 JSON wire protocol — every request and response
//! printed is a plain string a browser-extension front-end could send or
//! receive (shapes documented in `PROTOCOL.md`).
//!
//! To make the eviction machinery visible, the manager is capped at ONE
//! live session: every time the other tenant speaks, the previous one is
//! evicted to a compact snapshot and transparently restored on its next
//! event. The final stats line shows the eviction/restore traffic.
//!
//! ```text
//! cargo run --example service_loop
//! ```

use std::error::Error;
use std::sync::Arc;

use webrobot::{ServiceConfig, SessionManager, SiteBuilder, Value};
use webrobot_data::parse_json;
use webrobot_dom::parse_html;

fn main() -> Result<(), Box<dyn Error>> {
    // Two independent "customers": a staff directory and a news page.
    let mut b = SiteBuilder::new();
    let directory = b.add_page(
        "https://directory.test/",
        parse_html(
            "<html><body>\
             <div class='person'><h3>Ada Lovelace</h3></div>\
             <div class='person'><h3>Grace Hopper</h3></div>\
             <div class='person'><h3>Alan Turing</h3></div>\
             <div class='person'><h3>Barbara Liskov</h3></div>\
             <div class='person'><h3>Leslie Lamport</h3></div>\
             </body></html>",
        )?,
    );
    let directory = Arc::new(b.start_at(directory).finish());
    let mut b = SiteBuilder::new();
    let news = b.add_page(
        "https://news.test/",
        parse_html("<html><h3>A</h3><h3>B</h3><h3>C</h3><h3>D</h3></html>")?,
    );
    let news = Arc::new(b.start_at(news).finish());

    // Force eviction on every tenant switch.
    let mut manager = SessionManager::new(ServiceConfig::builder().max_live_sessions(1).build()?);
    manager.register_site("directory", directory, Value::Object(vec![]));
    manager.register_site("news", news, Value::Object(vec![]));

    // Both tenants open their sessions.
    for site in ["directory", "news"] {
        let reply = send(
            &mut manager,
            &format!(r#"{{"v": 1, "kind": "create", "site": "{site}"}}"#),
        );
        println!("  ← {reply}\n");
    }

    // Interleave the two workflows: directory scrapes nested h3s, news
    // scrapes flat h3s. Each tenant demonstrates twice, accepts until
    // automation takes over, then lets it run.
    let scripts = [
        (
            "s-1",
            vec!["/body[1]/div[1]/h3[1]", "/body[1]/div[2]/h3[1]"],
        ),
        ("s-2", vec!["/h3[1]", "/h3[2]"]),
    ];
    let mut modes = ["demonstrate".to_string(), "demonstrate".to_string()];
    let mut demos = [0usize, 0usize];
    let mut open = [true, true];
    while open.iter().any(|&o| o) {
        for (i, (session, selectors)) in scripts.iter().enumerate() {
            if !open[i] {
                continue;
            }
            let event = match modes[i].as_str() {
                "demonstrate" if demos[i] < selectors.len() => {
                    demos[i] += 1;
                    format!(
                        r#"{{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "{}"}}}}"#,
                        selectors[demos[i] - 1]
                    )
                }
                "demonstrate" => {
                    // Automation ran off the end of the list: done.
                    send(
                        &mut manager,
                        &format!(
                            r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {{"type": "finish"}}}}"#
                        ),
                    );
                    let reply = send(
                        &mut manager,
                        &format!(r#"{{"v": 1, "kind": "close", "session": "{session}"}}"#),
                    );
                    println!("  ← {reply}\n");
                    open[i] = false;
                    continue;
                }
                "authorize" => r#"{"type": "accept", "index": 0}"#.to_string(),
                _ => r#"{"type": "automate_step"}"#.to_string(),
            };
            let reply = send(
                &mut manager,
                &format!(
                    r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {event}}}"#
                ),
            );
            println!("  ← {reply}\n");
            let parsed = parse_json(&reply)?;
            modes[i] = parsed
                .field("mode")
                .and_then(Value::as_str)
                .unwrap_or("demonstrate")
                .to_string();
        }
    }

    let metrics = send(&mut manager, r#"{"v": 1, "kind": "metrics"}"#);
    let parsed = parse_json(&metrics)?;
    let stats = parsed.field("stats").expect("metrics reply carries stats");
    println!("  ← stats group of the metrics reply: {stats}");
    let field = |group: &str, k: &str| {
        stats
            .field(group)
            .and_then(|g| g.field(k))
            .and_then(Value::as_int)
            .unwrap_or(0)
    };
    println!(
        "\n{} sessions served to completion with ≤1 live at a time: \
         {} evictions, {} snapshot restorations.",
        field("sessions", "closed"),
        field("residency", "evictions"),
        field("residency", "restores"),
    );
    assert_eq!(field("sessions", "closed"), 2);
    assert!(
        field("residency", "restores") > 0,
        "eviction machinery was exercised"
    );
    Ok(())
}

/// Sends one request string, echoing it like a wire transcript.
fn send(manager: &mut SessionManager, request: &str) -> String {
    println!("  → {request}");
    manager.handle_json(request)
}
