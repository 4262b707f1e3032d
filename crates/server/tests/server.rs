//! End-to-end tests for the TCP front end: framing, multiplexed
//! connections, overload behavior at the socket, and drain composing
//! with the snapshot store.

use std::io::Cursor;
use std::sync::Arc;

use webrobot_browser::{Site, SiteBuilder};
use webrobot_data::Value;
use webrobot_dom::parse_html;
use webrobot_server::{read_frame, write_frame, Client, Server, MAX_FRAME};
use webrobot_service::{SegmentStore, ServiceConfig, ShardedManager, SnapshotStore};

fn anchor_site(n: usize) -> Arc<Site> {
    let body: String = (1..=n).map(|i| format!("<a>item {i}</a>")).collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        "https://anchors.test/",
        parse_html(&format!("<html>{body}</html>")).unwrap(),
    );
    Arc::new(b.start_at(home).finish())
}

fn server(shards: usize) -> Server {
    let manager = ShardedManager::new(ServiceConfig::default(), shards);
    manager.register_site("anchors", anchor_site(6), Value::Object(vec![]));
    Server::bind(manager, "127.0.0.1:0").unwrap()
}

fn demonstrate(session: &str, i: usize) -> String {
    format!(
        r#"{{"v": 1, "kind": "event", "session": "{session}", "event":
           {{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "/a[{i}]"}}}}}}"#
    )
}

#[test]
fn frames_roundtrip_and_reject_oversize() {
    let mut buf = Vec::new();
    write_frame(&mut buf, b"hello").unwrap();
    write_frame(&mut buf, b"").unwrap();
    let mut r = Cursor::new(buf);
    assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
    assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
    assert_eq!(
        read_frame(&mut r).unwrap(),
        None,
        "clean EOF between frames"
    );

    // A header announcing more than MAX_FRAME is corrupt, not an
    // allocation request.
    let huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
    assert!(read_frame(&mut Cursor::new(huge)).is_err());
    // EOF inside a header is an error, not a clean close.
    assert!(read_frame(&mut Cursor::new(vec![0u8, 0])).is_err());
}

#[test]
fn concurrent_connections_multiplex_onto_one_service() {
    let server = server(2);
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.run());

    // Two clients create their own sessions and drive them concurrently;
    // a third checks the aggregate afterwards.
    let drivers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let created = client
                    .call(r#"{"v": 1, "kind": "create", "site": "anchors"}"#)
                    .unwrap();
                assert!(created.contains(r#""session":"s-"#), "{created}");
                let session: String = created
                    .split(r#""session":""#)
                    .nth(1)
                    .unwrap()
                    .chars()
                    .take_while(|c| *c != '"')
                    .collect();
                for i in 1..=2 {
                    let reply = client.call(&demonstrate(&session, i)).unwrap();
                    assert!(reply.contains(r#""outcome":"recorded""#), "{reply}");
                }
                session
            })
        })
        .collect();
    let mut sessions: Vec<String> = drivers.into_iter().map(|d| d.join().unwrap()).collect();
    sessions.sort();
    assert_eq!(sessions, ["s-1", "s-2"]);

    let mut client = Client::connect(addr).unwrap();
    let metrics = client.call(r#"{"v": 1, "kind": "metrics"}"#).unwrap();
    assert!(
        metrics.contains(r#""events":{"ok":4,"rejected":0}"#),
        "{metrics}"
    );

    let drained = client.drain().unwrap();
    assert!(drained.contains(r#""kind":"drained""#), "{drained}");
    serving.join().unwrap().unwrap();

    // The drained server is gone: new connections fail or close.
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.call(r#"{"v": 1, "kind": "metrics"}"#).is_err());
    }
}

/// One hostile frame — a megabyte of `[` — is a typed `bad_request`, not
/// a stack overflow that aborts the process and every tenant's sessions
/// with it: the same server goes on creating sessions.
#[test]
fn a_deeply_nested_frame_is_a_bad_request_and_the_server_keeps_serving() {
    let server = server(2);
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).unwrap();
    let reply = client.call(&"[".repeat(1 << 20)).unwrap();
    assert!(reply.contains(r#""code":"bad_request""#), "{reply}");
    let created = client
        .call(r#"{"v": 1, "kind": "create", "site": "anchors"}"#)
        .unwrap();
    assert!(created.contains(r#""session":"s-1""#), "{created}");

    let drained = client.drain().unwrap();
    assert!(drained.contains(r#""kind":"drained""#), "{drained}");
    serving.join().unwrap().unwrap();
}

#[test]
fn drain_checkpoints_sessions_into_the_store() {
    let dir = std::env::temp_dir().join(format!(
        "webrobot-server-drain-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let open_stores = || -> Vec<Box<dyn SnapshotStore>> {
        let handle = SegmentStore::open(&dir).unwrap().into_shared();
        (0..2)
            .map(|_| Box::new(handle.clone()) as Box<dyn SnapshotStore>)
            .collect()
    };

    {
        let manager = ShardedManager::with_stores(ServiceConfig::default(), open_stores()).unwrap();
        manager.register_site("anchors", anchor_site(6), Value::Object(vec![]));
        let server = Server::bind(manager, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let serving = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).unwrap();
        client
            .call(r#"{"v": 1, "kind": "create", "site": "anchors"}"#)
            .unwrap();
        for i in 1..=2 {
            client.call(&demonstrate("s-1", i)).unwrap();
        }
        let drained = client.drain().unwrap();
        assert!(drained.contains(r#""sessions":1"#), "{drained}");
        serving.join().unwrap().unwrap();
    }

    // A fresh deployment over the same store resumes the session where
    // the drain left it.
    let manager = ShardedManager::with_stores(ServiceConfig::default(), open_stores()).unwrap();
    manager.register_site("anchors", anchor_site(6), Value::Object(vec![]));
    let reply = manager.handle_json(r#"{"v": 1, "kind": "outputs", "session": "s-1"}"#);
    assert!(reply.contains("item 1"), "{reply}");
    assert!(reply.contains("item 2"), "{reply}");
    let _ = std::fs::remove_dir_all(&dir);
}
