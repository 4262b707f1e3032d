//! Durability differentials over **generated** workloads: the
//! kill/recover and evict/restore guarantees proven in `persistence.rs`
//! on hand-written anchor sites must hold identically on procedurally
//! generated sites (`webrobot_benchmarks::gen`) — richer DOMs, loopy
//! ground truths, real `EnterData`/`Click` navigation. A final
//! differential pins the restore path: a deployment that restores a
//! session from its snapshot's engine digest on every request must be
//! wire-identical to one that never evicts.
//!
//! Method (shared with `persistence.rs`): a *reference* deployment and a
//! *subject* deployment receive the exact same request strings in
//! lockstep and every response pair is asserted byte-equal — including
//! typed error responses, which generated workloads produce organically
//! (the conditional family's predictions can over-generalize, and that
//! must fail identically on both sides).

use std::fs;
use std::path::{Path, PathBuf};

use webrobot::{Event, Request, SegmentStore, ServiceConfig, ShardedManager, SnapshotStore, Value};
use webrobot_benchmarks::{generated, Benchmark, Family, GenFamily};
use webrobot_data::parse_json;
use webrobot_service::event_to_value;

/// A fresh per-test scratch directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("webrobot-genpersist-{}-{name}", std::process::id()));
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

/// A sharded deployment over one segment store at `dir`, shared by all
/// shards.
fn open_sharded(cfg: &ServiceConfig, shards: usize, dir: &Path) -> ShardedManager {
    let handle = SegmentStore::open(dir).unwrap().into_shared();
    let stores: Vec<Box<dyn SnapshotStore>> = (0..shards)
        .map(|_| Box::new(handle.clone()) as Box<dyn SnapshotStore>)
        .collect();
    ShardedManager::with_stores(cfg.clone(), stores).unwrap()
}

/// The generated benchmarks this file drives: loop-terminating families
/// (their ground truths run to completion, so sessions converge to
/// `done`), plus — where a test opts in — the mixed family for its
/// `EnterData`/`Click` wire actions.
fn terminating_workload(seed: u64) -> Vec<Benchmark> {
    [GenFamily::Macro, GenFamily::Ragged, GenFamily::Conditional]
        .into_iter()
        .map(|f| generated(f, seed))
        .collect()
}

fn site_name(b: &Benchmark) -> String {
    let Family::Generated(f) = b.family else {
        panic!("{} is not a generated benchmark", b.name);
    };
    format!("gen-{}", f.key())
}

fn register_generated(m: &ShardedManager, benches: &[Benchmark]) {
    for b in benches {
        m.register_site(site_name(b), b.site.clone(), b.input.clone());
    }
}

fn create_req(site: &str) -> String {
    Request::Create {
        site: site.to_string(),
        input: None,
        deadline_ms: None,
    }
    .to_json()
}

fn event_req(session: &str, event: &str) -> String {
    format!(r#"{{"v": 1, "kind": "event", "session": "{session}", "event": {event}}}"#)
}

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

fn status_of(reply: &Value) -> String {
    reply
        .field("status")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The `stats` group of a deployment's `metrics` reply (the counters; the
/// rest of a scrape is timings).
fn stats_group(m: &ShardedManager) -> String {
    let reply = parse_json(&m.handle_json(r#"{"v": 1, "kind": "metrics"}"#)).unwrap();
    reply.field("stats").expect("metrics carry stats").to_json()
}

/// The event a mode-first client sends next.
fn next_event(mode: &str) -> &'static str {
    match mode {
        "authorize" => r#"{"type": "accept", "index": 0}"#,
        "automate" => r#"{"type": "automate_step"}"#,
        _ => r#"{"type": "finish"}"#,
    }
}

/// Phase 1: one session per generated benchmark, the first `prefix`
/// recorded actions demonstrated round-robin (so multi-session state
/// interleaves), plus one deliberate out-of-range accept so typed errors
/// are byte-compared too. Returns `(session id, mode after the last
/// demonstrate)` pairs.
fn phase1(
    reference: &ShardedManager,
    subject: &ShardedManager,
    benches: &[Benchmark],
    prefix: usize,
) -> Vec<(String, String)> {
    let events: Vec<Vec<String>> = benches
        .iter()
        .map(|b| {
            let rec = b.record().expect("generated ground truths record");
            assert!(
                rec.trace.len() >= prefix,
                "{}: recording shorter than the demonstration prefix",
                b.name
            );
            rec.trace
                .actions()
                .iter()
                .take(prefix)
                .map(|a| event_to_value(&Event::Demonstrate(a.clone())).to_string())
                .collect()
        })
        .collect();

    let mut sessions = Vec::new();
    for b in benches {
        let reply = both(reference, subject, &create_req(&site_name(b)));
        assert_eq!(status_of(&reply), "ok", "{reply}");
        let id = reply
            .field("session")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        sessions.push((id, String::new()));
    }
    for step in 0..prefix {
        for ((id, mode), row) in sessions.iter_mut().zip(&events) {
            let reply = both(reference, subject, &event_req(id, &row[step]));
            assert_eq!(status_of(&reply), "ok", "demonstrate on {id}: {reply}");
            *mode = mode_of(&reply);
        }
    }
    let reply = both(
        reference,
        subject,
        &event_req(&sessions[0].0, r#"{"type": "accept", "index": 99}"#),
    );
    assert_eq!(status_of(&reply), "error");
    sessions
}

/// Drives one session mode-first until `done`, byte-comparing every
/// reply. Generated workloads may answer an accept or automate step with
/// a typed error (an over-general prediction pointing at a node the site
/// lacks); that error must be identical on both sides, after which the
/// session is finished and the loop ends.
fn drive_to_done(reference: &ShardedManager, subject: &ShardedManager, id: &str, mode: &str) {
    let mut mode = mode.to_string();
    let mut guard = 0;
    while mode != "done" {
        guard += 1;
        assert!(guard < 96, "workflow did not converge for {id}");
        let reply = both(reference, subject, &event_req(id, next_event(&mode)));
        if status_of(&reply) != "ok" {
            // Typed failure, byte-compared above like everything else.
            both(reference, subject, &event_req(id, r#"{"type": "finish"}"#));
            break;
        }
        mode = mode_of(&reply);
    }
    both(
        reference,
        subject,
        &Request::Outputs {
            session: id.to_string(),
        }
        .to_json(),
    );
}

/// Phase 2: complete every session, checkpoint, close, and end on a
/// stats probe — all byte-compared, the final counters too (the workload
/// applies no eviction pressure, so even the residency counters agree).
fn phase2(reference: &ShardedManager, subject: &ShardedManager, sessions: &[(String, String)]) {
    for (id, mode) in sessions {
        drive_to_done(reference, subject, id, mode);
    }
    let reply = both(reference, subject, r#"{"v": 1, "kind": "checkpoint"}"#);
    assert_eq!(
        reply.field("sessions").and_then(Value::as_int),
        Some(sessions.len() as i64)
    );
    for (id, _) in sessions {
        both(
            reference,
            subject,
            &Request::Close {
                session: id.clone(),
            }
            .to_json(),
        );
    }
    assert_eq!(stats_group(reference), stats_group(subject));
}

/// Kill (drop-flush) and reopen mid-workflow over generated sites: every
/// wire response byte-identical to a deployment that never restarted.
#[test]
fn generated_workloads_reopen_byte_identical_on_the_segment_backend() {
    let benches = terminating_workload(11);
    let dir_ref = TempDir::new("reopen-ref");
    let dir_sub = TempDir::new("reopen-sub");
    let cfg = ServiceConfig::default();

    let reference = open_sharded(&cfg, 2, dir_ref.path());
    register_generated(&reference, &benches);
    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_generated(&subject, &benches);

    let sessions = phase1(&reference, &subject, &benches, 4);
    drop(subject); // flush
    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_generated(&subject, &benches);
    phase2(&reference, &subject, &sessions);
}

/// A hard kill (no destructors — `mem::forget`, exactly like SIGKILL)
/// right after an explicit checkpoint loses nothing the checkpoint
/// covered, over generated sites.
#[test]
fn generated_checkpoint_bounds_hard_kill_loss_on_the_segment_backend() {
    let benches = terminating_workload(29);
    let dir_ref = TempDir::new("hardkill-ref");
    let dir_sub = TempDir::new("hardkill-sub");
    let cfg = ServiceConfig::default();

    let reference = open_sharded(&cfg, 2, dir_ref.path());
    register_generated(&reference, &benches);
    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_generated(&subject, &benches);

    let sessions = phase1(&reference, &subject, &benches, 4);
    let reply = both(&reference, &subject, r#"{"v": 1, "kind": "checkpoint"}"#);
    assert_eq!(
        reply.field("sessions").and_then(Value::as_int),
        Some(sessions.len() as i64)
    );

    std::mem::forget(subject); // SIGKILL: no drop-flush

    let subject = open_sharded(&cfg, 2, dir_sub.path());
    register_generated(&subject, &benches);
    phase2(&reference, &subject, &sessions);
}

/// Restore under thrash: a single live slot forces an evict + restore
/// cycle on every request, so each reply is produced by a session freshly
/// rehydrated from its snapshot — including the mixed family, whose
/// `EnterData`/`Click` history must replay through form state and page
/// navigation. A kill/reopen lands mid-thrash. Session-scoped responses
/// only (the stats gauge caveat is documented in PROTOCOL.md).
#[test]
fn generated_eviction_thrash_is_unobservable_on_the_segment_backend() {
    let mut benches = terminating_workload(7);
    benches.push(generated(GenFamily::Mixed, 7));
    let dir_ref = TempDir::new("thrash-ref");
    let dir_sub = TempDir::new("thrash-sub");
    let cfg = ServiceConfig::builder()
        .max_live_sessions(1)
        .build()
        .unwrap();

    let reference = open_sharded(&cfg, 1, dir_ref.path());
    register_generated(&reference, &benches);
    let subject = open_sharded(&cfg, 1, dir_sub.path());
    register_generated(&subject, &benches);

    let sessions = phase1(&reference, &subject, &benches, 4);
    drop(subject);
    let subject = open_sharded(&cfg, 1, dir_sub.path());
    register_generated(&subject, &benches);

    for (id, mode) in &sessions {
        drive_to_done(&reference, &subject, id, mode);
    }
}

/// The restore differential: under a single live slot, every request
/// evicts one session and restores the next from its snapshot's engine
/// digest; every reply — prediction, outcome, error — must match a
/// deployment that never evicts. Sessions advance round-robin, one event
/// each per round, so every request switches sessions; the mixed family
/// replays `EnterData`/`Click` history through form state and
/// navigation on each restore.
#[test]
fn digest_restores_match_an_unevicted_deployment_on_generated_workloads() {
    let mut benches = terminating_workload(13);
    benches.push(generated(GenFamily::Mixed, 13));
    let dir_ref = TempDir::new("restore-ref");
    let dir_sub = TempDir::new("restore-sub");
    let thrash = ServiceConfig::builder()
        .max_live_sessions(1)
        .build()
        .unwrap();

    let reference = open_sharded(&ServiceConfig::default(), 1, dir_ref.path());
    register_generated(&reference, &benches);
    let subject = open_sharded(&thrash, 1, dir_sub.path());
    register_generated(&subject, &benches);

    let sessions = phase1(&reference, &subject, &benches, 4);
    let mut modes: Vec<String> = sessions.iter().map(|(_, mode)| mode.clone()).collect();
    for _round in 0..96 {
        let mut open = false;
        for ((id, _), mode) in sessions.iter().zip(&mut modes) {
            if mode == "done" {
                continue;
            }
            open = true;
            let reply = both(&reference, &subject, &event_req(id, next_event(mode)));
            *mode = if status_of(&reply) == "ok" {
                mode_of(&reply)
            } else {
                // A typed failure, byte-compared above, ends the session.
                both(
                    &reference,
                    &subject,
                    &event_req(id, r#"{"type": "finish"}"#),
                );
                "done".to_string()
            };
        }
        if !open {
            break;
        }
    }
    assert!(modes.iter().all(|m| m == "done"), "workflows converged");
    for (id, _) in &sessions {
        both(
            &reference,
            &subject,
            &Request::Outputs {
                session: id.clone(),
            }
            .to_json(),
        );
    }
    assert_eq!(reference.stats_v2().residency.restores, 0);
    assert!(
        subject.stats_v2().residency.restores as usize > 2 * sessions.len(),
        "the subject restored on every session switch"
    );
}
