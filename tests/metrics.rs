//! Metrics correctness over the wire: a fixed, deterministic request
//! script is driven through a [`ShardedManager`] and the `metrics`
//! reply's counters and histogram **counts** (never timings) are
//! asserted exactly — per-kind ok/error tallies, histogram totals equal
//! to recorded events, scheduler counters, gauge shape — at shard
//! counts 1 and 4, which must agree because requests are recorded once
//! at the front-end boundary, not per shard.
//!
//! Also pins the reply to the retired `{"v": 1, "kind": "stats"}`
//! request: a typed `bad_request`, byte-for-byte.

use std::sync::Arc;

use webrobot::{ServiceConfig, ShardedManager, Site, SiteBuilder, Value};
use webrobot_data::parse_json;
use webrobot_dom::parse_html;

fn anchor_site() -> Arc<Site> {
    let body: String = (1..=4).map(|i| format!("<a>item {i}</a>")).collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        "https://anchors.test/",
        parse_html(&format!("<html>{body}</html>")).unwrap(),
    );
    Arc::new(b.start_at(home).finish())
}

fn manager(shards: usize) -> ShardedManager {
    // A one-hour quantum guarantees each event completes inside its
    // first slice: exactly one quantum per dispatched event, zero parks —
    // exact, not timing-dependent.
    let cfg = ServiceConfig::builder()
        .quantum(std::time::Duration::from_secs(3600))
        .build()
        .unwrap();
    let manager = ShardedManager::new(cfg, shards);
    manager.register_site("anchors", anchor_site(), Value::Object(vec![]));
    manager
}

/// The deterministic script: every request kind, the ok and the error
/// path where both exist, plus one malformed frame.
fn run_script(manager: &ShardedManager) {
    let script: &[(&str, &str)] = &[
        (
            r#"{"v": 1, "kind": "create", "site": "anchors"}"#,
            r#""session":"s-1""#,
        ),
        (
            r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "demonstrate", "action": {"op": "scrape_text", "selector": "/a[1]"}}}"#,
            r#""outcome":"recorded""#,
        ),
        (
            r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "demonstrate", "action": {"op": "scrape_text", "selector": "/a[2]"}}}"#,
            r#""outcome":"recorded""#,
        ),
        (
            r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 99}}"#,
            r#""code":"invalid_prediction""#,
        ),
        (
            r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": 0}}"#,
            r#""status":"ok""#,
        ),
        (
            r#"{"v": 1, "kind": "outputs", "session": "s-1"}"#,
            r#""kind":"outputs""#,
        ),
        (
            r#"{"v": 1, "kind": "event", "session": "s-99", "event": {"type": "finish"}}"#,
            r#""code":"unknown_session""#,
        ),
        ("][ not json", r#""code":"bad_request""#),
        (
            r#"{"v": 1, "kind": "create", "site": "never-registered"}"#,
            r#""code":"unknown_site""#,
        ),
        (r#"{"v": 1, "kind": "checkpoint"}"#, r#""code":"no_store""#),
        (
            r#"{"v": 1, "kind": "close", "session": "s-1"}"#,
            r#""kind":"closed""#,
        ),
    ];
    for (request, expect) in script {
        let reply = manager.handle_json(request);
        assert!(
            reply.contains(expect),
            "expected '{expect}' in reply to {request}, got {reply}"
        );
    }
}

fn int(v: &Value, field: &str) -> i64 {
    v.field(field)
        .and_then(Value::as_int)
        .unwrap_or_else(|| panic!("no integer field '{field}' in {}", v.to_json()))
}

/// The `requests` row for one kind out of a parsed `metrics` reply.
fn request_row<'a>(metrics: &'a Value, kind: &str) -> &'a Value {
    let Some(Value::Array(rows)) = metrics.field("requests") else {
        panic!("metrics reply has no requests array");
    };
    rows.iter()
        .find(|row| row.field("kind").and_then(Value::as_str) == Some(kind))
        .unwrap_or_else(|| panic!("no requests row for kind '{kind}'"))
}

/// Error counts as (code, count) pairs from a requests row.
fn errors_of(row: &Value) -> Vec<(String, i64)> {
    let Some(Value::Array(errors)) = row.field("errors") else {
        panic!("requests row has no errors array");
    };
    errors
        .iter()
        .map(|e| {
            (
                e.field("code").and_then(Value::as_str).unwrap().to_string(),
                int(e, "count"),
            )
        })
        .collect()
}

/// Asserts one row's exact ok/error/histogram-count tallies. The
/// histogram count must equal every response of the kind, ok and error
/// alike — recorded events can neither vanish nor double-count.
fn assert_row(metrics: &Value, kind: &str, ok: i64, errors: &[(&str, i64)]) {
    let row = request_row(metrics, kind);
    assert_eq!(int(row, "ok"), ok, "ok count for kind '{kind}'");
    let got: Vec<(String, i64)> = errors_of(row);
    let want: Vec<(String, i64)> = errors
        .iter()
        .map(|(code, count)| (code.to_string(), *count))
        .collect();
    assert_eq!(got, want, "error counts for kind '{kind}'");
    let latency = row.field("latency").expect("latency histogram");
    let recorded = ok + errors.iter().map(|(_, n)| n).sum::<i64>();
    assert_eq!(
        int(latency, "count"),
        recorded,
        "histogram count for kind '{kind}' must equal ok + errors"
    );
    // Bucket totals must add back up to the recorded-event count.
    let Some(Value::Array(buckets)) = latency.field("buckets") else {
        panic!("latency histogram has no buckets array");
    };
    let bucket_total: i64 = buckets.iter().map(|b| int(b, "count")).sum();
    assert_eq!(
        bucket_total, recorded,
        "bucket totals for kind '{kind}' must equal the recorded-event count"
    );
}

fn scrape(manager: &ShardedManager) -> Value {
    let reply = manager.handle_json(r#"{"v": 1, "kind": "metrics"}"#);
    assert!(
        reply.contains(r#""status":"ok""#) && reply.contains(r#""kind":"metrics""#),
        "metrics scrape failed: {reply}"
    );
    parse_json(&reply).expect("metrics reply parses")
}

/// The tentpole correctness claim: after the fixed script, every
/// counter and histogram count in the `metrics` reply is exactly what
/// the script implies — independent of shard count, because requests
/// are recorded once at the ingress boundary.
#[test]
fn wire_script_yields_exact_counter_and_histogram_deltas() {
    for shards in [1usize, 4] {
        let manager = manager(shards);
        run_script(&manager);
        let reply = scrape(&manager);
        let metrics = reply.field("metrics").expect("metrics payload");

        assert_eq!(int(metrics, "version"), 1, "shards={shards}");
        assert_row(metrics, "create", 1, &[("unknown_site", 1)]);
        assert_row(
            metrics,
            "event",
            3,
            &[("unknown_session", 1), ("invalid_prediction", 1)],
        );
        assert_row(metrics, "outputs", 1, &[]);
        assert_row(metrics, "close", 1, &[]);
        assert_row(metrics, "checkpoint", 0, &[("no_store", 1)]);
        assert_row(metrics, "malformed", 0, &[("bad_request", 1)]);
        // The scrape that produced this snapshot is not yet in it: a
        // request is recorded after its response is computed.
        assert_row(metrics, "metrics", 0, &[]);

        // Scheduler counters: each of the 5 dispatched events (4 on the
        // live session + the unknown-session probe) takes exactly one
        // quantum under the oversized slice, and nothing ever parks.
        let scheduler = metrics.field("scheduler").expect("scheduler counters");
        assert_eq!(int(scheduler, "quanta"), 5, "shards={shards}");
        assert_eq!(int(scheduler, "parks"), 0, "shards={shards}");

        // Gauges: one row per shard; the session is closed, nothing
        // queued or parked anywhere.
        let Some(Value::Array(rows)) = metrics.field("shards") else {
            panic!("metrics reply has no shards array");
        };
        assert_eq!(rows.len(), shards, "one gauge row per shard");
        for gauges in ["live_sessions", "evicted_sessions", "queue_depth"] {
            let total: i64 = rows.iter().map(|row| int(row, gauges)).sum();
            assert_eq!(total, 0, "{gauges} after close, shards={shards}");
        }

        // A second scrape now sees the first one: the metrics kind
        // advanced by exactly one ok.
        let again = scrape(&manager);
        let metrics = again.field("metrics").expect("metrics payload");
        assert_row(metrics, "metrics", 1, &[]);
        // …and everything else is unchanged.
        assert_row(metrics, "create", 1, &[("unknown_site", 1)]);
        assert_row(
            metrics,
            "event",
            3,
            &[("unknown_session", 1), ("invalid_prediction", 1)],
        );
    }
}

/// The `metrics` reply embeds the StatsV2 shape — versioned, grouped —
/// and its numbers agree with the library accessor for the same run.
#[test]
fn metrics_reply_embeds_versioned_stats() {
    let manager = manager(2);
    run_script(&manager);
    let reply = scrape(&manager);
    let stats = reply.field("stats").expect("stats payload");
    assert_eq!(int(stats, "v"), 2);
    let sessions = stats.field("sessions").expect("sessions group");
    assert_eq!(int(sessions, "created"), 1);
    assert_eq!(int(sessions, "closed"), 1);
    assert_eq!(int(sessions, "live"), 0);
    let events = stats.field("events").expect("events group");
    assert_eq!(int(events, "ok"), 3);
    let accessor = manager.stats_v2();
    assert_eq!(accessor.sessions.created, 1);
    assert_eq!(accessor.events.ok, 3);
}

/// The flat `stats` request is retired — `metrics` carries the same
/// counters in its `stats` group. An old client's `stats` frame gets a
/// typed `bad_request` (asserted against a literal) and is counted as a
/// malformed frame.
#[test]
fn legacy_stats_request_is_a_bad_request() {
    let manager = manager(1);
    run_script(&manager);
    let reply = manager.handle_json(r#"{"v":1,"kind":"stats"}"#);
    assert_eq!(
        reply,
        r#"{"v":1,"status":"error","error":{"code":"bad_request","message":"bad_request: unknown request kind 'stats'"}}"#,
    );
    let reply = scrape(&manager);
    let metrics = reply.field("metrics").expect("metrics payload");
    assert_row(metrics, "malformed", 0, &[("bad_request", 2)]);
}

/// The `recover` request is retired: a manager adopts its store's keys
/// when it is built, and a segment directory has one writing process, so
/// nothing new can appear later. Its frame gets a typed `bad_request`,
/// is counted as malformed, and the reply lists seven request kinds.
#[test]
fn retired_recover_request_is_a_bad_request() {
    let manager = manager(2);
    let reply = manager.handle_json(r#"{"v":1,"kind":"recover"}"#);
    assert_eq!(
        reply,
        r#"{"v":1,"status":"error","error":{"code":"bad_request","message":"bad_request: unknown request kind 'recover'"}}"#,
    );
    let reply = scrape(&manager);
    let metrics = reply.field("metrics").expect("metrics payload");
    assert_row(metrics, "malformed", 0, &[("bad_request", 1)]);
    let Some(Value::Array(rows)) = metrics.field("requests") else {
        panic!("metrics reply has no requests array");
    };
    let kinds: Vec<&str> = rows
        .iter()
        .filter_map(|row| row.field("kind").and_then(Value::as_str))
        .collect();
    assert_eq!(
        kinds,
        [
            "create",
            "event",
            "outputs",
            "metrics",
            "close",
            "checkpoint",
            "malformed"
        ]
    );
}
