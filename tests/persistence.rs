//! Durability integration tests: a manager reopened from its persistent
//! [`SnapshotStore`] must be **byte-identical on the wire** to a manager
//! that never restarted — at shard counts 1, 2 and 4, mid-workflow, with
//! the restart landing between two arbitrary requests. Tampered or
//! truncated store files must surface as typed error responses, never
//! panics.
//!
//! Method: a *reference* deployment (never restarted) and a *subject*
//! deployment (killed and reopened between phase 1 and phase 2) receive
//! the exact same request strings in lockstep, and every response pair is
//! asserted equal. Requests are chosen mode-driven off the common reply,
//! so the transcript covers the full demo→authorize→automate workflow,
//! deliberate errors included.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use webrobot::{
    MemoryStore, Request, SegmentStore, ServiceConfig, SessionId, SessionManager, ShardedManager,
    SiteBuilder, SnapshotStore, StoreError, Value,
};
use webrobot_data::parse_json;
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

/// A fresh per-test scratch directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "webrobot-persistence-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Opens a sharded deployment over one segment store rooted at `dir`,
/// shared by all `shards` shards through cloned [`SegmentHandle`]s (the
/// layout is shard-count-stable: each shard adopts exactly the session
/// ids it owns — the unit of storage is the key, not the shard).
///
/// [`SegmentHandle`]: webrobot::SegmentHandle
fn open_sharded(cfg: &ServiceConfig, shards: usize, dir: &Path) -> ShardedManager {
    let handle = SegmentStore::open(dir).unwrap().into_shared();
    let stores: Vec<Box<dyn SnapshotStore>> = (0..shards)
        .map(|_| Box::new(handle.clone()) as Box<dyn SnapshotStore>)
        .collect();
    ShardedManager::with_stores(cfg.clone(), stores).unwrap()
}

/// Every record of the (closed) store at `dir`, as raw JSON text.
fn records_of(dir: &Path) -> BTreeMap<String, String> {
    let store = SegmentStore::open(dir).unwrap();
    store
        .keys()
        .unwrap()
        .into_iter()
        .map(|key| {
            let raw = store.get(&key).unwrap().unwrap().to_json();
            (key, raw)
        })
        .collect()
}

fn register_sites(m: &ShardedManager, sites: &[Arc<webrobot::Site>]) {
    for (i, site) in sites.iter().enumerate() {
        m.register_site(format!("site{i}"), site.clone(), Value::Object(vec![]));
    }
}

fn create_req(site_index: usize) -> String {
    Request::Create {
        site: format!("site{site_index}"),
        input: None,
        deadline_ms: None,
    }
    .to_json()
}

fn event_req(session: &str, event: &str) -> String {
    format!(r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {event}}}"#)
}

fn scrape_ev(i: usize) -> String {
    format!(
        r#"{{"type": "demonstrate", "action": {{"op": "scrape_text", "selector": "/a[{i}]"}}}}"#
    )
}

/// Sends one request to both deployments and asserts the responses are
/// byte-identical; returns the (common) parsed reply.
fn both(reference: &ShardedManager, subject: &ShardedManager, req: &str) -> Value {
    let a = reference.handle_json(req);
    let b = subject.handle_json(req);
    assert_eq!(a, b, "reference and subject diverged on request {req}");
    parse_json(&a).unwrap()
}

fn mode_of(reply: &Value) -> String {
    reply
        .field("mode")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The `stats` group of a deployment's `metrics` reply: the counters a
/// scrape carries, and the part of it two deployments can byte-compare
/// (the rest is timings).
fn stats_group(m: &ShardedManager) -> String {
    let reply = parse_json(&m.handle_json(r#"{"v": 1, "kind": "metrics"}"#)).unwrap();
    reply.field("stats").expect("metrics carry stats").to_json()
}

/// Phase 1 of the workload: open one session per site, demonstrate two
/// scrapes each (round-robin interleaved), and mix in a deliberate
/// out-of-range accept so error responses are differentially checked too.
/// Returns the session ids.
fn phase1(reference: &ShardedManager, subject: &ShardedManager, sessions: usize) -> Vec<String> {
    let mut ids = Vec::new();
    for i in 0..sessions {
        let reply = both(reference, subject, &create_req(i));
        assert_eq!(reply.field("status").and_then(Value::as_str), Some("ok"));
        ids.push(
            reply
                .field("session")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
        );
    }
    for step in 1..=2 {
        for id in &ids {
            let reply = both(reference, subject, &event_req(id, &scrape_ev(step)));
            assert_eq!(
                reply.field("status").and_then(Value::as_str),
                Some("ok"),
                "{reply}"
            );
        }
    }
    // Deliberate error, byte-compared like everything else.
    let reply = both(
        reference,
        subject,
        &event_req(&ids[0], r#"{"type": "accept", "index": 99}"#),
    );
    assert_eq!(reply.field("status").and_then(Value::as_str), Some("error"));
    ids
}

/// Phase 2: drive every session mode-first to completion (accepts, then
/// automation, then finish/close), open one more session to pin the id
/// sequence, checkpoint both deployments, and end on a stats probe. All
/// responses byte-compared, and the final counters too.
fn phase2(reference: &ShardedManager, subject: &ShardedManager, ids: &[String]) {
    // One more create: the reopened deployment must continue the global
    // id sequence exactly where the killed process stopped.
    let reply = both(reference, subject, &create_req(0));
    let new_id = reply
        .field("session")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    assert_eq!(new_id, format!("s-{}", ids.len() + 1));
    both(reference, subject, &event_req(&new_id, &scrape_ev(1)));

    for id in ids {
        let mut mode = "authorize".to_string();
        let mut guard = 0;
        while mode != "done" {
            guard += 1;
            assert!(guard < 64, "workflow did not converge for {id}");
            let event = match mode.as_str() {
                "authorize" => r#"{"type": "accept", "index": 0}"#.to_string(),
                "automate" => r#"{"type": "automate_step"}"#.to_string(),
                _ => r#"{"type": "finish"}"#.to_string(),
            };
            let reply = both(reference, subject, &event_req(id, &event));
            assert_eq!(
                reply.field("status").and_then(Value::as_str),
                Some("ok"),
                "{reply}"
            );
            mode = mode_of(&reply);
        }
        // Outputs survive the restart byte-for-byte.
        both(
            reference,
            subject,
            &Request::Outputs {
                session: id.clone(),
            }
            .to_json(),
        );
    }

    // Explicit checkpoint on both: the counts must agree.
    let reply = both(reference, subject, r#"{"v": 1, "kind": "checkpoint"}"#);
    assert_eq!(
        reply.field("sessions").and_then(Value::as_int),
        Some(ids.len() as i64 + 1)
    );

    // Close everything, then the final stats probe is byte-identical too
    // (all counters carried across the restart; no eviction pressure in
    // this workload, so even the eviction/restore counters agree).
    for id in ids.iter().chain(std::iter::once(&new_id)) {
        both(
            reference,
            subject,
            &Request::Close {
                session: id.clone(),
            }
            .to_json(),
        );
    }
    let stats = stats_group(reference);
    assert_eq!(stats, stats_group(subject), "counters diverged");
    let stats = parse_json(&stats).unwrap();
    let sessions = stats.field("sessions").unwrap();
    assert_eq!(
        sessions.field("closed").and_then(Value::as_int),
        Some(ids.len() as i64 + 1)
    );
    assert_eq!(sessions.field("live").and_then(Value::as_int), Some(0));
}

/// The acceptance differential: kill/reopen mid-workflow at shard counts
/// 1, 2 and 4 — every wire response byte-identical to a deployment that
/// never restarted, including the final stats.
#[test]
fn segment_backed_managers_are_byte_identical_at_shard_counts_1_2_4() {
    for shards in [1usize, 2, 4] {
        let sites: Vec<_> = [5, 6, 7].into_iter().map(anchor_site).collect();
        let dir_ref = TempDir::new(&format!("ref-{shards}"));
        let dir_sub = TempDir::new(&format!("sub-{shards}"));
        let cfg = ServiceConfig::default();

        let reference = open_sharded(&cfg, shards, dir_ref.path());
        register_sites(&reference, &sites);
        let subject = open_sharded(&cfg, shards, dir_sub.path());
        register_sites(&subject, &sites);

        let ids = phase1(&reference, &subject, sites.len());

        // "Kill" the subject process: dropping flushes every shard's
        // manager to its store. Then reopen from the same directory.
        drop(subject);
        let subject = open_sharded(&cfg, shards, dir_sub.path());
        register_sites(&subject, &sites);

        phase2(&reference, &subject, &ids);
    }
}

/// A hard kill right after an explicit `checkpoint` (no drop-flush: the
/// manager is leaked, exactly like SIGKILL) loses nothing that the
/// checkpoint covered.
#[test]
fn checkpoint_bounds_the_loss_window_under_a_hard_kill() {
    let sites: Vec<_> = [5, 6].into_iter().map(anchor_site).collect();
    let dir_ref = TempDir::new("hardkill-ref");
    let dir_sub = TempDir::new("hardkill-sub");
    let cfg = ServiceConfig::default();

    let reference = open_sharded(&cfg, 2, dir_ref.path());
    register_sites(&reference, &sites);
    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_sites(&subject, &sites);

    let ids = phase1(&reference, &subject, sites.len());
    let reply = both(&reference, &subject, r#"{"v": 1, "kind": "checkpoint"}"#);
    assert_eq!(
        reply.field("sessions").and_then(Value::as_int),
        Some(ids.len() as i64)
    );

    // SIGKILL: no destructors run. (Leaks the shard threads and managers
    // for the remainder of the test process — that is the point.)
    std::mem::forget(subject);

    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_sites(&subject, &sites);
    phase2(&reference, &subject, &ids);
}

/// CRC-32 (IEEE, reflected) — mirrors the segment-log frame spec so the
/// tests below can forge byte-exact frames.
fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A checksummed, complete PUT frame — exactly what a group commit that
/// never reached its COMMIT record leaves behind.
fn forged_put_frame(key: &str, value: &[u8]) -> Vec<u8> {
    let mut f = vec![b'P'];
    f.extend_from_slice(&u32::try_from(key.len()).unwrap().to_be_bytes());
    f.extend_from_slice(&u32::try_from(value.len()).unwrap().to_be_bytes());
    f.extend_from_slice(key.as_bytes());
    f.extend_from_slice(value);
    f.extend_from_slice(&crc32(&f).to_be_bytes());
    f
}

/// The active (last) segment file of a segment-store directory.
fn active_segment(dir: &Path) -> PathBuf {
    let manifest = parse_json(&fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
    let id = manifest
        .field("segments")
        .and_then(Value::as_array)
        .and_then(<[Value]>::last)
        .and_then(Value::as_int)
        .unwrap();
    dir.join(format!("seg-{id}.log"))
}

/// The segment-log hard-kill differential: a SIGKILL lands *mid group
/// commit* — a complete PUT frame and a torn half-frame reached the file,
/// but the batch's COMMIT never did. Recovery must discard both and land
/// exactly at the last commit (the explicit checkpoint), leaving the
/// reopened deployment byte-identical on the wire.
#[test]
fn segment_recovery_lands_at_the_last_commit_after_a_hard_kill_mid_group_commit() {
    let sites: Vec<_> = [5, 6].into_iter().map(anchor_site).collect();
    let dir_ref = TempDir::new("seg-hardkill-ref");
    let dir_sub = TempDir::new("seg-hardkill-sub");
    let cfg = ServiceConfig::default();

    let reference = open_sharded(&cfg, 2, dir_ref.path());
    register_sites(&reference, &sites);
    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_sites(&subject, &sites);

    let ids = phase1(&reference, &subject, sites.len());
    let reply = both(&reference, &subject, r#"{"v": 1, "kind": "checkpoint"}"#);
    assert_eq!(
        reply.field("sessions").and_then(Value::as_int),
        Some(ids.len() as i64)
    );

    // SIGKILL: no destructors run.
    std::mem::forget(subject);

    // What the dying process left in the page cache past the last COMMIT:
    // one complete-but-uncommitted overwrite of s-1 (garbage — if recovery
    // wrongly applied it, the reopen below would fail loudly) and a torn
    // half-frame behind it.
    let seg = active_segment(dir_sub.path());
    let mut file = fs::OpenOptions::new().append(true).open(&seg).unwrap();
    file.write_all(&forged_put_frame(
        "s-1",
        br#"{"v": 1, "kind": "session", "session": "s-1", "mode": "zen"}"#,
    ))
    .unwrap();
    file.write_all(b"P\x00\x00").unwrap();
    drop(file);

    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_sites(&subject, &sites);
    phase2(&reference, &subject, &ids);
}

/// Restart interacts correctly with eviction pressure: a thrashing
/// single-live-slot deployment stays byte-identical on every
/// session-scoped response across a kill/reopen. (Stats are exempt here
/// by design: the reference pays eviction/restore cycles for sessions the
/// subject rehydrates from the store once — PROTOCOL.md documents the
/// gauge caveat.)
#[test]
fn segment_restart_under_eviction_thrash_is_unobservable_on_session_responses() {
    let sites: Vec<_> = [5, 6, 7].into_iter().map(anchor_site).collect();
    let dir_ref = TempDir::new("thrash-ref");
    let dir_sub = TempDir::new("thrash-sub");
    let cfg = ServiceConfig::builder()
        .max_live_sessions(1)
        .build()
        .unwrap();

    let reference = open_sharded(&cfg, 1, dir_ref.path());
    register_sites(&reference, &sites);
    let subject = open_sharded(&cfg, 1, dir_sub.path());
    register_sites(&subject, &sites);

    let ids = phase1(&reference, &subject, sites.len());
    drop(subject);
    let subject = open_sharded(&cfg, 1, dir_sub.path());
    register_sites(&subject, &sites);

    // Mode-driven completion, interleaved so every turn thrashes the one
    // live slot (no checkpoint/stats probes — session responses only).
    let mut modes: Vec<String> = vec!["authorize".to_string(); ids.len()];
    for _round in 0..32 {
        for (i, id) in ids.iter().enumerate() {
            if modes[i] == "done" {
                continue;
            }
            let event = match modes[i].as_str() {
                "authorize" => r#"{"type": "accept", "index": 0}"#.to_string(),
                "automate" => r#"{"type": "automate_step"}"#.to_string(),
                _ => r#"{"type": "finish"}"#.to_string(),
            };
            let reply = both(&reference, &subject, &event_req(id, &event));
            assert_eq!(
                reply.field("status").and_then(Value::as_str),
                Some("ok"),
                "{reply}"
            );
            modes[i] = mode_of(&reply);
        }
        if modes.iter().all(|m| m == "done") {
            break;
        }
    }
    assert!(modes.iter().all(|m| m == "done"), "workload converged");
    for id in &ids {
        both(
            &reference,
            &subject,
            &Request::Outputs {
                session: id.clone(),
            }
            .to_json(),
        );
    }
}

/// The store layout is shard-count-stable: a directory written by a
/// 2-shard deployment reopens at shard counts 1 and 4, every session
/// intact and able to run to completion (counters restart conservatively;
/// ids never collide).
#[test]
fn stores_reopen_across_shard_counts() {
    let sites: Vec<_> = [5, 6, 7, 8].into_iter().map(anchor_site).collect();
    let dir = TempDir::new("migrate");
    let cfg = ServiceConfig::default();

    let ids: Vec<String> = {
        let m = open_sharded(&cfg, 2, dir.path());
        register_sites(&m, &sites);
        let mut ids = Vec::new();
        for i in 0..sites.len() {
            let reply = parse_json(&m.handle_json(&create_req(i))).unwrap();
            ids.push(
                reply
                    .field("session")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        for step in 1..=2 {
            for id in &ids {
                let reply = m.handle_json(&event_req(id, &scrape_ev(step)));
                assert!(reply.contains(r#""status":"ok""#), "{reply}");
            }
        }
        ids
        // drop flushes all shards
    };

    for (round, shards) in [1usize, 4].into_iter().enumerate() {
        let m = open_sharded(&cfg, shards, dir.path());
        register_sites(&m, &sites);
        for (i, id) in ids.iter().enumerate() {
            // Each adopted session continues mid-workflow: it is in
            // authorize mode with a correct prediction, and its outputs
            // are intact.
            let reply = m.handle_json(&event_req(id, r#"{"type": "accept", "index": 0}"#));
            assert!(
                reply.contains(r#""outcome":"recorded""#),
                "shards={shards} {id}: {reply}"
            );
            let outputs = m.handle_json(
                &Request::Outputs {
                    session: id.clone(),
                }
                .to_json(),
            );
            let outputs = parse_json(&outputs).unwrap();
            // Phase 1 scraped 2 items; each migration round's accept
            // scrapes one more (and the drop-flush persists it for the
            // next round).
            assert_eq!(
                outputs
                    .field("outputs")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len),
                Some(3 + round),
                "shards={shards} site{i}"
            );
        }
        // New creates never collide with adopted ids.
        let reply = parse_json(&m.handle_json(&create_req(0))).unwrap();
        let new_id = reply.field("session").and_then(Value::as_str).unwrap();
        assert!(
            !ids.iter().any(|id| id == new_id),
            "shards={shards}: id {new_id} collided"
        );
    }
}

// ───────────────────── corruption / tampering ─────────────────────

/// One mid-workflow session (create + two demonstrations on `site0`),
/// drop-flushed into a segment store; returns the store's records as raw
/// JSON text — what the tamper tests edit — and the site.
fn flushed_records(name: &str) -> (BTreeMap<String, String>, Arc<webrobot::Site>) {
    let (dir, site) = flushed_segment_store(name);
    let records = records_of(dir.path());
    assert!(records.contains_key("s-1"));
    assert!(records.contains_key("shard-1-of-1"));
    (records, site)
}

/// Reopens a single manager over a [`MemoryStore`] holding exactly
/// `records`, verbatim.
fn reopen_single(records: &BTreeMap<String, String>) -> Result<SessionManager, StoreError> {
    let mut store = MemoryStore::new();
    for (key, raw) in records {
        store.insert_raw(key.clone(), raw.clone());
    }
    SessionManager::with_store(ServiceConfig::default(), Box::new(store))
}

/// A truncated session record (invalid JSON) does not fail the reopen:
/// its session answers a typed `snapshot_corrupt` on first touch, and
/// again on the next, while another tenant's session and new sessions
/// keep working.
#[test]
fn truncated_session_records_surface_as_wire_errors_on_touch() {
    let (mut records, site) = flushed_records("truncated");
    let full = records["s-1"].clone();
    records.insert(
        "s-2".to_string(),
        full.replace("\"session\":\"s-1\"", "\"session\":\"s-2\""),
    );
    records.insert("s-1".to_string(), full[..full.len() / 2].to_string());

    let mut m = reopen_single(&records).unwrap();
    m.register_site("site0", site, Value::Object(vec![]));
    for _ in 0..2 {
        let reply = m.handle_json(&event_req("s-1", r#"{"type": "accept", "index": 0}"#));
        assert!(reply.contains(r#""code":"snapshot_corrupt""#), "{reply}");
        assert!(reply.contains("s-1"), "{reply}");
    }
    let reply = m.handle_json(&event_req("s-2", r#"{"type": "accept", "index": 0}"#));
    assert!(reply.contains(r#""outcome":"recorded""#), "{reply}");
    let reply = m.handle_json(&create_req(0));
    assert!(reply.contains(r#""session":"s-3""#), "{reply}");
}

/// A record that *parses* as JSON but decodes to garbage surfaces as a
/// typed wire error on first touch; the manager itself stays usable.
#[test]
fn shape_tampered_records_surface_as_wire_errors_on_touch() {
    let (mut records, site) = flushed_records("tampered-shape");
    let tampered = records["s-1"].replace("\"mode\":\"authorize\"", "\"mode\":\"zen\"");
    records.insert("s-1".to_string(), tampered);

    let mut m = reopen_single(&records).unwrap();
    m.register_site("site0", site.clone(), Value::Object(vec![]));
    let reply = m.handle_json(&event_req("s-1", r#"{"type": "accept", "index": 0}"#));
    assert!(reply.contains(r#""code":"snapshot_corrupt""#), "{reply}");
    assert!(reply.contains("s-1"), "{reply}");
    // The manager is not poisoned: new sessions work fine.
    let reply = m.handle_json(&create_req(0));
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
}

/// Replaces the first `"p"` (an engine item's program text) in `v`.
fn replace_first_program(v: &mut Value, text: &str) -> bool {
    match v {
        Value::Object(fields) => fields.iter_mut().any(|(key, field)| {
            if key == "p" {
                *field = Value::str(text);
                true
            } else {
                replace_first_program(field, text)
            }
        }),
        Value::Array(items) => items
            .iter_mut()
            .any(|item| replace_first_program(item, text)),
        _ => false,
    }
}

/// A record whose engine digest holds a program nested 100,000 loops deep
/// surfaces as a typed `snapshot_corrupt` on first touch instead of
/// overflowing the shard's stack; the manager keeps serving other
/// sessions.
#[test]
fn deeply_nested_engine_programs_are_typed_corruption() {
    let (mut records, site) = flushed_records("deep-engine");
    let mut record = parse_json(&records["s-1"]).unwrap();
    let deep = "while true do {".repeat(100_000);
    assert!(
        replace_first_program(&mut record, &deep),
        "{}",
        records["s-1"]
    );
    records.insert("s-1".to_string(), record.to_json());

    let mut m = reopen_single(&records).unwrap();
    m.register_site("site0", site.clone(), Value::Object(vec![]));
    let reply = m.handle_json(&event_req("s-1", r#"{"type": "accept", "index": 0}"#));
    assert!(reply.contains(r#""code":"snapshot_corrupt""#), "{reply}");
    assert!(reply.contains("nested deeper than 64"), "{reply}");
    let reply = parse_json(&m.handle_json(&create_req(0))).unwrap();
    let fresh = reply.field("session").and_then(Value::as_str).unwrap();
    let reply = m.handle_json(&event_req(fresh, &scrape_ev(1)));
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
}

/// A record whose replayable history was tampered with (shape-valid, but
/// the selector no longer resolves) surfaces as a typed `browser_error`
/// when restoration replays it.
#[test]
fn history_tampered_records_surface_as_browser_errors() {
    let (mut records, site) = flushed_records("tampered-history");
    // The executed history stores absolute paths (/html[1]/a[k]); point
    // one at a node the site does not have.
    assert!(records["s-1"].contains("a[2]"), "{}", records["s-1"]);
    let tampered = records["s-1"].replace("a[2]", "a[99]");
    records.insert("s-1".to_string(), tampered);

    let mut m = reopen_single(&records).unwrap();
    m.register_site("site0", site.clone(), Value::Object(vec![]));
    let reply = m.handle_json(&event_req("s-1", r#"{"type": "accept", "index": 0}"#));
    assert!(reply.contains(r#""code":"browser_error""#), "{reply}");
}

/// A record stored under one key but claiming another session id is
/// rejected as corrupt (it would otherwise silently impersonate).
#[test]
fn id_mismatched_records_are_rejected() {
    let (mut records, site) = flushed_records("tampered-id");
    let tampered = records["s-1"].replace("\"session\":\"s-1\"", "\"session\":\"s-7\"");
    records.insert("s-1".to_string(), tampered);

    let mut m = reopen_single(&records).unwrap();
    m.register_site("site0", site, Value::Object(vec![]));
    let reply = m.handle_json(&event_req("s-1", r#"{"type": "accept", "index": 0}"#));
    assert!(reply.contains(r#""code":"snapshot_corrupt""#), "{reply}");
}

/// A corrupt metadata record also fails the reopen fast and typed.
#[test]
fn corrupt_metadata_fails_reopen_with_a_typed_error() {
    let (mut records, _site) = flushed_records("tampered-meta");
    records.insert("shard-1-of-1".to_string(), "}{ not json".to_string());
    match reopen_single(&records) {
        Err(StoreError::Corrupt { key, .. }) => assert_eq!(key, "shard-1-of-1"),
        other => panic!("expected a corrupt-metadata error, got {other:?}"),
    }
}

/// A v1 session record as written before engine digests existed — with
/// the re-synthesis schedule (`resynth`) those builds stored, and no
/// `engine` — still decodes, restores through one full synthesis, and
/// continues its task exactly like a session that was never stored.
#[test]
fn pre_digest_records_restore_and_continue_their_task() {
    let (mut records, site) = flushed_records("pre-digest");
    let Value::Object(fields) = parse_json(&records["s-1"]).unwrap() else {
        panic!("session records are objects");
    };
    let stored = fields.len();
    let mut fields: Vec<(String, Value)> = fields
        .into_iter()
        .filter(|(key, _)| key != "engine")
        .collect();
    assert_eq!(
        fields.len(),
        stored - 1,
        "the stored record carried a digest"
    );
    fields.push((
        "resynth".to_string(),
        Value::Array(vec![Value::Int(1), Value::Int(2)]),
    ));
    records.insert("s-1".to_string(), Value::Object(fields).to_json());

    let mut restored = reopen_single(&records).unwrap();
    restored.register_site("site0", site.clone(), Value::Object(vec![]));
    // The reference runs the same history and was never stored.
    let mut reference = SessionManager::new(ServiceConfig::default());
    reference.register_site("site0", site, Value::Object(vec![]));
    reference.handle_json(&create_req(0));
    for step in 1..=2 {
        reference.handle_json(&event_req("s-1", &scrape_ev(step)));
    }

    let mut mode = "authorize".to_string();
    let mut steps = 0;
    while mode != "done" {
        steps += 1;
        assert!(steps < 64, "workflow did not converge");
        let event = match mode.as_str() {
            "authorize" => r#"{"type": "accept", "index": 0}"#,
            "automate" => r#"{"type": "automate_step"}"#,
            _ => r#"{"type": "finish"}"#,
        };
        let want = reference.handle_json(&event_req("s-1", event));
        assert_eq!(restored.handle_json(&event_req("s-1", event)), want);
        let reply = parse_json(&want).unwrap();
        assert_eq!(
            reply.field("status").and_then(Value::as_str),
            Some("ok"),
            "{want}"
        );
        mode = mode_of(&reply);
    }
    let outputs = Request::Outputs {
        session: "s-1".to_string(),
    }
    .to_json();
    let want = reference.handle_json(&outputs);
    assert!(want.contains("item 6"), "the task ran to its end: {want}");
    assert_eq!(restored.handle_json(&outputs), want);
}

/// One mid-workflow session on a [`SegmentStore`], drop-flushed (so the
/// log ends in a COMMIT frame).
fn flushed_segment_store(name: &str) -> (TempDir, Arc<webrobot::Site>) {
    let dir = TempDir::new(name);
    let site = anchor_site(6);
    let store = Box::new(SegmentStore::open(dir.path()).unwrap());
    let mut m = SessionManager::with_store(ServiceConfig::default(), store).unwrap();
    m.register_site("site0", site.clone(), Value::Object(vec![]));
    let reply = m.handle_json(&create_req(0));
    assert!(reply.contains(r#""session":"s-1""#), "{reply}");
    for step in 1..=2 {
        let reply = m.handle_json(&event_req("s-1", &scrape_ev(step)));
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    drop(m); // flush
    assert!(dir.path().join("manifest.json").exists());
    (dir, site)
}

/// A flipped bit inside *committed* segment data (an invalid frame with a
/// valid COMMIT behind it) is real corruption, not shutdown debris: the
/// reopen fails fast with a typed error, never a panic.
#[test]
fn bit_flips_in_committed_segment_frames_fail_reopen_with_a_typed_error() {
    let (dir, _site) = flushed_segment_store("segment-bitflip");
    let seg = active_segment(dir.path());
    let mut bytes = fs::read(&seg).unwrap();
    // Offset 40 is inside the first PUT frame's JSON payload (frame
    // header + key "s-1" end at byte 12); the file ends in the
    // drop-flush's COMMIT, so the damage sits in committed data.
    bytes[40] ^= 0xFF;
    fs::write(&seg, &bytes).unwrap();
    match SegmentStore::open(dir.path()) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("expected a corrupt-segment error, got {other:?}"),
    }
}

/// A torn frame *after* the last COMMIT is normal hard-kill debris: the
/// reopen truncates it and the session continues unharmed.
#[test]
fn torn_segment_tails_are_discarded_and_the_session_continues() {
    let (dir, site) = flushed_segment_store("segment-torn");
    let seg = active_segment(dir.path());
    let committed = fs::metadata(&seg).unwrap().len();
    let mut file = fs::OpenOptions::new().append(true).open(&seg).unwrap();
    file.write_all(b"D\x00\x00\x00").unwrap(); // half a DEL header
    drop(file);

    let store = Box::new(SegmentStore::open(dir.path()).unwrap());
    assert_eq!(
        fs::metadata(&seg).unwrap().len(),
        committed,
        "recovery truncates back to the last COMMIT"
    );
    let mut m = SessionManager::with_store(ServiceConfig::default(), store).unwrap();
    m.register_site("site0", site, Value::Object(vec![]));
    let reply = m.handle_json(&event_req("s-1", r#"{"type": "accept", "index": 0}"#));
    assert!(reply.contains(r#""outcome":"recorded""#), "{reply}");
}

/// A stale manifest naming a segment file that no longer exists is a
/// typed I/O error, not a panic.
#[test]
fn stale_manifests_fail_reopen_with_a_typed_error() {
    let (dir, _site) = flushed_segment_store("segment-stale-manifest");
    fs::remove_file(active_segment(dir.path())).unwrap();
    match SegmentStore::open(dir.path()) {
        Err(StoreError::Io { .. } | StoreError::Corrupt { .. }) => {}
        other => panic!("expected a typed error, got {other:?}"),
    }
}

// ───────────────────── checkpoint cost shape ─────────────────────

/// A [`MemoryStore`] that counts `put` and `get` calls — observes
/// exactly how many records a checkpoint or an eviction writes and a
/// reopen or a restore reads. Clones share one store and its counters,
/// so a second manager can reopen what the first one wrote.
#[derive(Debug, Clone, Default)]
struct CountingStore {
    inner: Arc<Mutex<MemoryStore>>,
    puts: Arc<AtomicUsize>,
    gets: Arc<AtomicUsize>,
}

impl CountingStore {
    fn new(puts: &Arc<AtomicUsize>) -> CountingStore {
        CountingStore {
            puts: puts.clone(),
            ..CountingStore::default()
        }
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, MemoryStore> {
        self.inner.lock().unwrap()
    }
}

impl SnapshotStore for CountingStore {
    fn put(&mut self, key: &str, record: &Value) -> Result<(), StoreError> {
        self.puts.fetch_add(1, Ordering::SeqCst);
        self.inner().put(key, record)
    }

    fn get(&self, key: &str) -> Result<Option<Value>, StoreError> {
        self.gets.fetch_add(1, Ordering::SeqCst);
        self.inner().get(key)
    }

    fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        self.inner().remove(key)
    }

    fn keys(&self) -> Result<Vec<String>, StoreError> {
        self.inner().keys()
    }
}

/// Checkpoints are O(dirty): an idle checkpoint writes only the shard
/// metadata, and touching one of three sessions re-writes exactly that
/// one.
#[test]
fn incremental_checkpoints_write_only_dirty_sessions() {
    let puts = Arc::new(AtomicUsize::new(0));
    let store = Box::new(CountingStore::new(&puts));
    let mut m = SessionManager::with_store(ServiceConfig::default(), store).unwrap();
    m.register_site("site0", anchor_site(6), Value::Object(vec![]));
    for _ in 0..3 {
        let reply = m.handle_json(&create_req(0));
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    for step in 1..=2 {
        for s in 1..=3 {
            let id = format!("s-{s}");
            let reply = m.handle_json(&event_req(&id, &scrape_ev(step)));
            assert!(reply.contains(r#""status":"ok""#), "{reply}");
        }
    }

    puts.store(0, Ordering::SeqCst);
    m.handle_json(r#"{"v": 1, "kind": "checkpoint"}"#);
    let first = puts.swap(0, Ordering::SeqCst);
    m.handle_json(r#"{"v": 1, "kind": "checkpoint"}"#);
    let idle = puts.swap(0, Ordering::SeqCst);
    let reply = m.handle_json(&event_req("s-2", r#"{"type": "accept", "index": 0}"#));
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    m.handle_json(r#"{"v": 1, "kind": "checkpoint"}"#);
    let one_dirty = puts.swap(0, Ordering::SeqCst);

    // 3 sessions + meta, then meta only, then 1 + meta.
    assert_eq!((first, idle, one_dirty), (4, 1, 2));
}

/// Evicting a clean session writes nothing: its store record already
/// holds that state. The in-memory snapshot still answers, and a reopen
/// after a hard kill restores the session from the record the first
/// eviction wrote.
#[test]
fn evicting_a_clean_session_writes_nothing() {
    let puts = Arc::new(AtomicUsize::new(0));
    let store = CountingStore::new(&puts);
    let shared = store.inner.clone();
    let cfg = ServiceConfig::builder()
        .max_live_sessions(1)
        .build()
        .unwrap();
    let mut m = SessionManager::with_store(cfg.clone(), Box::new(store)).unwrap();
    m.register_site("site0", anchor_site(6), Value::Object(vec![]));
    let reply = m.handle_json(&create_req(0));
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    for step in 1..=2 {
        let reply = m.handle_json(&event_req("s-1", &scrape_ev(step)));
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    let id: SessionId = "s-1".parse().unwrap();

    puts.store(0, Ordering::SeqCst);
    assert!(m.evict(id));
    assert_eq!(puts.swap(0, Ordering::SeqCst), 1, "a dirty eviction spills");
    let outputs = m.outputs(id).unwrap();
    assert_eq!(outputs.len(), 2);
    assert!(m.evict(id));
    assert_eq!(
        puts.swap(0, Ordering::SeqCst),
        0,
        "a clean eviction writes nothing"
    );
    assert_eq!(m.outputs(id).unwrap(), outputs);

    // Hard kill: no drop flush, so the store holds only what evictions
    // wrote.
    std::mem::forget(m);
    let store = CountingStore {
        inner: shared,
        ..CountingStore::new(&puts)
    };
    let mut reopened = SessionManager::with_store(cfg, Box::new(store)).unwrap();
    reopened.register_site("site0", anchor_site(6), Value::Object(vec![]));
    assert_eq!(reopened.outputs(id).unwrap(), outputs);
}

/// A reopen adopts session keys and reads no session record: building
/// the manager reads only its metadata record, a session's first touch
/// reads its record once, and neither a second touch nor an eviction
/// and restore (the snapshot stays in memory) reads it again.
#[test]
fn a_reopen_reads_no_session_record_until_first_touch() {
    let store = CountingStore::default();
    let site = anchor_site(6);
    let mut m =
        SessionManager::with_store(ServiceConfig::default(), Box::new(store.clone())).unwrap();
    m.register_site("site0", site.clone(), Value::Object(vec![]));
    for s in 1..=3 {
        let reply = m.handle_json(&create_req(0));
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
        let reply = m.handle_json(&event_req(&format!("s-{s}"), &scrape_ev(s)));
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    m.checkpoint().unwrap();
    drop(m);

    let gets = || store.gets.swap(0, Ordering::SeqCst);
    gets();
    let mut m =
        SessionManager::with_store(ServiceConfig::default(), Box::new(store.clone())).unwrap();
    m.register_site("site0", site, Value::Object(vec![]));
    assert_eq!(m.session_count(), 3);
    assert_eq!(gets(), 1, "a reopen reads only its metadata record");

    let id: SessionId = "s-2".parse().unwrap();
    let outputs = m.outputs(id).unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(gets(), 1, "the first touch reads the session's record");
    assert_eq!(m.outputs(id).unwrap(), outputs);
    assert_eq!(gets(), 0, "a live session reads nothing");
    assert!(m.evict(id));
    assert_eq!(m.outputs(id).unwrap(), outputs);
    assert_eq!(
        gets(),
        0,
        "a restore from the evicted snapshot reads nothing"
    );
}

// ───────────────────── segment-log fuzz properties ─────────────────────

use proptest::prelude::*;

/// A fresh two-commit segment log (8 records, a COMMIT after each batch
/// of 4) for the fuzzers to damage; returns the directory and the
/// segment file path.
fn seeded_segment_log(case: usize) -> (TempDir, PathBuf) {
    let dir = TempDir::new(&format!("segment-fuzz-{case}"));
    let mut store = SegmentStore::open(dir.path()).unwrap();
    for batch in 0..2 {
        for i in 0..4 {
            let key = format!("s-{}", batch * 4 + i);
            let record = parse_json(&format!(
                r#"{{"v": 1, "kind": "fuzz", "key": "{key}", "pad": "{}"}}"#,
                "y".repeat(64)
            ))
            .unwrap();
            store.put(&key, &record).unwrap();
        }
        store.flush().unwrap();
    }
    let seg = active_segment(dir.path());
    drop(store);
    (dir, seg)
}

/// Reopening a damaged log must either recover to a usable store (every
/// surviving record present and parsing) or fail with a typed error —
/// under no damage may it panic.
fn assert_recovers_or_fails_typed(dir: &Path) -> Result<(), TestCaseError> {
    match SegmentStore::open(dir) {
        Ok(store) => {
            for key in store.keys().expect("recovered stores enumerate") {
                prop_assert!(
                    store.get(&key).expect("recovered records read").is_some(),
                    "recovered key {key} unreadable"
                );
            }
        }
        Err(StoreError::Corrupt { .. } | StoreError::Io { .. }) => {}
    }
    Ok(())
}

static FUZZ_CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    /// A crash may cut the log at *any* byte. Whatever survives past the
    /// last intact COMMIT is debris; recovery never panics and every
    /// record it keeps parses.
    #[test]
    fn truncated_segment_logs_recover_or_fail_typed(cut_permille in 0u64..=1000) {
        let case = FUZZ_CASE.fetch_add(1, Ordering::SeqCst);
        let (dir, seg) = seeded_segment_log(case);
        let bytes = fs::read(&seg).unwrap();
        let cut = usize::try_from(bytes.len() as u64 * cut_permille / 1000).unwrap();
        fs::write(&seg, &bytes[..cut]).unwrap();
        assert_recovers_or_fails_typed(dir.path())?;
    }

    /// A flipped bit anywhere in the log — committed frame, commit
    /// record, or tail — yields a typed error or a clean recovery, never
    /// a panic and never an unreadable surviving record.
    #[test]
    fn bit_flipped_segment_logs_recover_or_fail_typed(
        pos_permille in 0u64..1000,
        bit in 0u32..8,
    ) {
        let case = FUZZ_CASE.fetch_add(1, Ordering::SeqCst);
        let (dir, seg) = seeded_segment_log(case);
        let mut bytes = fs::read(&seg).unwrap();
        let pos = usize::try_from(bytes.len() as u64 * pos_permille / 1000).unwrap();
        bytes[pos] ^= 1 << bit;
        fs::write(&seg, &bytes).unwrap();
        assert_recovers_or_fails_typed(dir.path())?;
    }
}
