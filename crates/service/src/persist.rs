//! Serialization of session snapshots and manager metadata into the wire
//! JSON subset — the record format a [`SnapshotStore`](crate::SnapshotStore)
//! holds.
//!
//! The format is versioned (`"v": 1`) and documented normatively in
//! `PROTOCOL.md` § "Snapshot records". Compatibility rule: within v1,
//! readers ignore unknown fields and default absent optional fields
//! (`engine` absent → restore runs one full synthesis, `program` absent →
//! no cached program, `deadline_ms` absent → the manager's template
//! deadline); a record carrying any other `v` is rejected as corrupt, so
//! a future v2 can change shape without silently mis-restoring.
//!
//! Everything here is total: a malformed record decodes to an error
//! `String` (wrapped into [`StoreError::Corrupt`](crate::StoreError) by
//! the manager), never a panic. Decoding is intentionally *shallow* about
//! semantics — a record can be shape-valid yet describe an impossible
//! session (tampered selectors, counters out of range); those surface as
//! typed [`SessionError`](webrobot_interact::SessionError)s when
//! [`Session::restore`](webrobot_interact::Session::restore) replays the
//! history.

use webrobot_data::Value;
use webrobot_interact::{EngineDigest, Item, Mode, SessionSnapshot};
use webrobot_lang::{parse_program, Action, Program};

use crate::protocol::{action_from_value, action_to_value};
use crate::stats::{EventCounters, ResidencyCounters, SessionCounters, StatsV2};

/// The snapshot-record format version this build reads and writes.
pub const STORE_VERSION: i64 = 1;

/// One decoded session record: everything needed to rebuild a
/// [`SessionSnapshot`] once the manager resolves the site name against
/// its registry and supplies its session-config template.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// The raw numeric session id (`s-<n>` → `n`).
    pub id: u64,
    /// The name of the site the session was created on.
    pub site: String,
    /// The per-session synthesis deadline override, if any.
    pub deadline_ms: Option<u64>,
    /// The session's data source.
    pub input: Value,
    /// The mode at snapshot time.
    pub mode: Mode,
    /// The executed action history.
    pub executed: Vec<Action>,
    /// The predictions on offer at snapshot time.
    pub predictions: Vec<Action>,
    /// Consecutive accepted predictions at snapshot time.
    pub consecutive_accepts: usize,
    /// Automated actions executed at snapshot time.
    pub automated_steps: usize,
    /// The cached last-generalizing program, if any.
    pub last_program: Option<Program>,
    /// The synthesizer's engine digest (`None` → a pre-digest record:
    /// restore runs one full synthesis).
    pub engine: Option<EngineDigest>,
}

/// Serializes one session into its store record.
pub fn encode_session(
    id: u64,
    site: &str,
    deadline_ms: Option<u64>,
    snap: &SessionSnapshot,
) -> Value {
    let mut fields = vec![
        ("v".to_string(), Value::Int(STORE_VERSION)),
        ("kind".to_string(), Value::str("session")),
        ("session".to_string(), Value::str(format!("s-{id}"))),
        ("site".to_string(), Value::str(site)),
    ];
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms".to_string(), Value::Int(ms as i64)));
    }
    fields.push(("input".to_string(), snap.input.clone()));
    fields.push(("mode".to_string(), Value::str(snap.mode.as_str())));
    fields.push((
        "executed".to_string(),
        Value::Array(snap.executed.iter().map(action_to_value).collect()),
    ));
    fields.push((
        "predictions".to_string(),
        Value::Array(snap.predictions.iter().map(action_to_value).collect()),
    ));
    fields.push((
        "consecutive_accepts".to_string(),
        Value::Int(snap.consecutive_accepts as i64),
    ));
    fields.push((
        "automated_steps".to_string(),
        Value::Int(snap.automated_steps as i64),
    ));
    if let Some(program) = &snap.last_program {
        fields.push(("program".to_string(), Value::str(program.to_string())));
    }
    if let Some(engine) = &snap.engine {
        fields.push(("engine".to_string(), engine_to_value(engine)));
    }
    Value::Object(fields)
}

/// Serializes an engine digest: item lists as `{"p": <program text>,
/// "b": [bounds]}` objects plus the sync point. Compact by construction —
/// worklist items are short programs, not steppers or memo tables.
fn engine_to_value(engine: &EngineDigest) -> Value {
    let items = |items: &[Item]| {
        Value::Array(
            items
                .iter()
                .map(|item| {
                    Value::object([
                        ("p".to_string(), Value::str(item.to_program().to_string())),
                        (
                            "b".to_string(),
                            Value::Array(
                                item.bounds()
                                    .iter()
                                    .map(|&n| Value::Int(n as i64))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    };
    Value::object([
        ("synced".to_string(), Value::Int(engine.synced_len as i64)),
        ("worklist".to_string(), items(&engine.worklist)),
        ("processed".to_string(), items(&engine.processed)),
        ("generalizing".to_string(), items(&engine.generalizing)),
    ])
}

/// Decodes one digest item. `Item::from_parts` re-checks the bounds
/// invariants (one more entry than statements, starting at 0, strictly
/// increasing), so a shape-tampered item is a typed decode error.
fn item_from_value(v: &Value, key: &str) -> Result<Item, String> {
    let text = v
        .field("p")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("engine '{key}' items need a string field 'p'"))?;
    let program = parse_program(text).map_err(|e| format!("bad program in engine '{key}': {e}"))?;
    let bounds = v
        .field("b")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("engine '{key}' items need an array field 'b'"))?
        .iter()
        .map(|n| {
            n.as_int()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("engine '{key}' bounds must be non-negative integers"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Item::from_parts(program.into_statements(), bounds)
        .ok_or_else(|| format!("engine '{key}' item bounds are not a valid slice partition"))
}

/// Decodes the optional engine digest, checking it against the executed
/// history: items may not cover more actions than the history holds and
/// the sync point may not lie past it. (The deep check — do the
/// "generalizing" programs actually generalize? — runs at adoption time,
/// where the replayed trace exists; an inconsistent digest degrades to
/// re-synthesis there, never to a wrong restore.)
fn engine_from_value(raw: &Value, executed_len: usize) -> Result<Option<EngineDigest>, String> {
    let Some(v) = raw.field("engine") else {
        return Ok(None);
    };
    let synced_len = v
        .field("synced")
        .and_then(Value::as_int)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| "engine field 'synced' must be a non-negative integer".to_string())?;
    if synced_len > executed_len {
        return Err(format!(
            "engine sync point {synced_len} lies past the {executed_len}-action history"
        ));
    }
    let items = |key: &str| -> Result<Vec<Item>, String> {
        let list = v
            .field(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("engine field '{key}' must be an array"))?;
        let items: Vec<Item> = list
            .iter()
            .map(|item| item_from_value(item, key))
            .collect::<Result<_, _>>()?;
        if let Some(over) = items.iter().find(|item| item.covered() > executed_len) {
            return Err(format!(
                "engine '{key}' item covers {} of {} executed actions",
                over.covered(),
                executed_len
            ));
        }
        Ok(items)
    };
    Ok(Some(EngineDigest {
        worklist: items("worklist")?,
        processed: items("processed")?,
        generalizing: items("generalizing")?,
        synced_len,
    }))
}

fn require_field<'v>(raw: &'v Value, key: &str) -> Result<&'v Value, String> {
    raw.field(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn require_str(raw: &Value, key: &str) -> Result<String, String> {
    require_field(raw, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field '{key}' must be a string"))
}

fn require_usize(raw: &Value, key: &str) -> Result<usize, String> {
    require_field(raw, key)?
        .as_int()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))
}

fn require_u64(raw: &Value, key: &str) -> Result<u64, String> {
    require_field(raw, key)?
        .as_int()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))
}

fn check_version(raw: &Value) -> Result<(), String> {
    match require_field(raw, "v")?.as_int() {
        Some(STORE_VERSION) => Ok(()),
        Some(other) => Err(format!(
            "record version {other} is not supported (this build reads v{STORE_VERSION})"
        )),
        None => Err("field 'v' must be an integer".to_string()),
    }
}

fn actions_field(raw: &Value, key: &str) -> Result<Vec<Action>, String> {
    require_field(raw, key)?
        .as_array()
        .ok_or_else(|| format!("field '{key}' must be an array"))?
        .iter()
        .map(|v| action_from_value(v).map_err(|e| format!("bad action in '{key}': {e}")))
        .collect()
}

fn mode_from_str(s: &str) -> Result<Mode, String> {
    match s {
        "demonstrate" => Ok(Mode::Demonstrate),
        "authorize" => Ok(Mode::Authorize),
        "automate" => Ok(Mode::Automate),
        "done" => Ok(Mode::Done),
        other => Err(format!("unknown mode '{other}'")),
    }
}

/// Decodes one session record. The error string carries the failure
/// detail; the caller attaches the record key.
pub fn decode_session(raw: &Value) -> Result<SessionRecord, String> {
    check_version(raw)?;
    if require_str(raw, "kind")? != "session" {
        return Err("field 'kind' must be \"session\"".to_string());
    }
    let session = require_str(raw, "session")?;
    let id: crate::SessionId = session
        .parse()
        .map_err(|()| format!("field 'session' is not a session id: '{session}'"))?;
    let deadline_ms = match raw.field("deadline_ms") {
        None => None,
        Some(_) => Some(require_u64(raw, "deadline_ms")?),
    };
    let last_program = match raw.field("program") {
        None => None,
        Some(v) => {
            let text = v
                .as_str()
                .ok_or_else(|| "field 'program' must be a string".to_string())?;
            Some(parse_program(text).map_err(|e| format!("bad cached program: {e}"))?)
        }
    };
    let executed = actions_field(raw, "executed")?;
    let engine = engine_from_value(raw, executed.len())?;
    Ok(SessionRecord {
        id: id.raw(),
        site: require_str(raw, "site")?,
        deadline_ms,
        input: require_field(raw, "input")?.clone(),
        mode: mode_from_str(&require_str(raw, "mode")?)?,
        executed,
        predictions: actions_field(raw, "predictions")?,
        consecutive_accepts: require_usize(raw, "consecutive_accepts")?,
        automated_steps: require_usize(raw, "automated_steps")?,
        last_program,
        engine,
    })
}

/// Manager-level metadata persisted alongside the session records: the id
/// sequence cursor, the LRU clock, and the carried-over counters — what a
/// reopened manager needs to continue byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManagerMeta {
    /// The next session id this manager would issue.
    pub next_id: u64,
    /// The logical LRU clock.
    pub clock: u64,
    /// The counter part of [`StatsV2`] (the live/evicted gauges are
    /// recomputed from the slots and not persisted).
    pub stats: StatsV2,
}

/// Serializes manager metadata into its store record.
pub fn encode_meta(meta: &ManagerMeta) -> Value {
    let count = |n: u64| Value::Int(n as i64);
    let stats = &meta.stats;
    Value::object([
        ("v".to_string(), Value::Int(STORE_VERSION)),
        ("kind".to_string(), Value::str("meta")),
        ("next_id".to_string(), count(meta.next_id)),
        ("clock".to_string(), count(meta.clock)),
        (
            "sessions_created".to_string(),
            count(stats.sessions.created),
        ),
        ("sessions_closed".to_string(), count(stats.sessions.closed)),
        ("events_ok".to_string(), count(stats.events.ok)),
        ("events_rejected".to_string(), count(stats.events.rejected)),
        ("evictions".to_string(), count(stats.residency.evictions)),
        ("restores".to_string(), count(stats.residency.restores)),
    ])
}

/// Decodes a manager metadata record.
pub fn decode_meta(raw: &Value) -> Result<ManagerMeta, String> {
    check_version(raw)?;
    if require_str(raw, "kind")? != "meta" {
        return Err("field 'kind' must be \"meta\"".to_string());
    }
    Ok(ManagerMeta {
        next_id: require_u64(raw, "next_id")?,
        clock: require_u64(raw, "clock")?,
        stats: StatsV2 {
            sessions: SessionCounters {
                created: require_u64(raw, "sessions_created")?,
                closed: require_u64(raw, "sessions_closed")?,
                live: 0,
                evicted: 0,
            },
            events: EventCounters {
                ok: require_u64(raw, "events_ok")?,
                rejected: require_u64(raw, "events_rejected")?,
            },
            residency: ResidencyCounters {
                evictions: require_u64(raw, "evictions")?,
                restores: require_u64(raw, "restores")?,
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webrobot_browser::SiteBuilder;
    use webrobot_data::parse_json;
    use webrobot_dom::parse_html;
    use webrobot_interact::{Session, SessionConfig};
    use webrobot_lang::Value as LangValue;

    fn sample_snapshot() -> SessionSnapshot {
        let mut b = SiteBuilder::new();
        let home = b.add_page(
            "https://codec.test/",
            parse_html("<html><a>1</a><a>2</a><a>3</a><a>4</a></html>").unwrap(),
        );
        let site = Arc::new(b.start_at(home).finish());
        let mut s = Session::new(site, LangValue::Object(vec![]), SessionConfig::default());
        for i in 1..=2 {
            s.handle(webrobot_interact::Event::Demonstrate(
                webrobot_lang::Action::ScrapeText(format!("/a[{i}]").parse().unwrap()),
            ))
            .unwrap();
        }
        s.handle(webrobot_interact::Event::Accept { index: 0 })
            .unwrap();
        s.snapshot()
    }

    #[test]
    fn session_records_round_trip() {
        let snap = sample_snapshot();
        let record = encode_session(7, "codec", Some(250), &snap);
        // Survives a print/parse cycle (what every store does).
        let reparsed = parse_json(&record.to_json()).unwrap();
        let decoded = decode_session(&reparsed).unwrap();
        assert_eq!(decoded.id, 7);
        assert_eq!(decoded.site, "codec");
        assert_eq!(decoded.deadline_ms, Some(250));
        assert_eq!(decoded.input, snap.input);
        assert_eq!(decoded.mode, snap.mode);
        assert_eq!(decoded.executed, snap.executed);
        assert_eq!(decoded.predictions, snap.predictions);
        assert_eq!(decoded.consecutive_accepts, snap.consecutive_accepts);
        assert_eq!(decoded.automated_steps, snap.automated_steps);
        assert_eq!(decoded.last_program, snap.last_program);
        assert_eq!(decoded.engine, snap.engine);
        assert!(decoded.engine.is_some(), "snapshots carry a digest");
    }

    /// Engine digests survive the print/parse cycle, and tampered ones
    /// are typed decode errors (shape and range checks) rather than
    /// silent mis-restores.
    #[test]
    fn digests_round_trip_and_validate() {
        let snap = sample_snapshot();
        let record = encode_session(4, "codec", None, &snap);
        let json = record.to_json();
        let decoded = decode_session(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(decoded.engine, snap.engine);

        // A sync point past the executed history.
        let mut overlong = snap.clone();
        overlong.engine.as_mut().unwrap().synced_len = 99;
        let err = decode_session(&encode_session(4, "codec", None, &overlong)).unwrap_err();
        assert!(err.contains("lies past"), "{err}");

        // An item covering more actions than the history holds.
        let mut overcovering = snap.clone();
        {
            let digest = overcovering.engine.as_mut().unwrap();
            let donor = &digest.processed[0];
            let mut bounds = donor.bounds().to_vec();
            *bounds.last_mut().unwrap() = 99;
            digest.processed[0] =
                webrobot_interact::Item::from_parts(donor.statements().to_vec(), bounds).unwrap();
        }
        let err = decode_session(&encode_session(4, "codec", None, &overcovering)).unwrap_err();
        assert!(err.contains("covers 99"), "{err}");

        // Bounds that are not a valid slice partition (first entry ≠ 0).
        let bad = json.replacen("\"b\":[0", "\"b\":[1", 1);
        assert_ne!(bad, json, "an engine item was mangled");
        let err = decode_session(&parse_json(&bad).unwrap()).unwrap_err();
        assert!(err.contains("slice partition"), "{err}");

        // A record without the field decodes to no digest (pre-digest
        // compatibility).
        let mut stripped = snap.clone();
        stripped.engine = None;
        let stripped = encode_session(4, "codec", None, &stripped);
        assert_eq!(decode_session(&stripped).unwrap().engine, None);
    }

    #[test]
    fn optional_fields_default_per_the_compat_rule() {
        let snap = sample_snapshot();
        let mut stripped = snap.clone();
        stripped.engine = None;
        stripped.last_program = None;
        let record = encode_session(1, "codec", None, &stripped);
        let decoded = decode_session(&record).unwrap();
        assert_eq!(decoded.deadline_ms, None);
        assert_eq!(decoded.engine, None, "absent digest → one full synthesis");
        assert_eq!(decoded.last_program, None);
        // Unknown fields are ignored (forward-compatible within v1).
        let mut with_extra = record.to_json();
        with_extra.insert_str(with_extra.len() - 1, ",\"future_field\":1");
        decode_session(&parse_json(&with_extra).unwrap()).unwrap();
    }

    #[test]
    fn malformed_records_decode_to_errors() {
        let snap = sample_snapshot();
        let good = encode_session(3, "codec", None, &snap).to_json();
        for (mangle, needle) in [
            (good.replace("\"v\":1", "\"v\":2"), "version 2"),
            (
                good.replace("\"kind\":\"session\"", "\"kind\":\"meta\""),
                "kind",
            ),
            (
                good.replace("\"session\":\"s-3\"", "\"session\":\"x3\""),
                "session id",
            ),
            (
                good.replace("\"mode\":\"authorize\"", "\"mode\":\"zen\""),
                "mode",
            ),
            (
                good.replace("\"consecutive_accepts\":1", "\"consecutive_accepts\":-1"),
                "non-negative",
            ),
            (good.replace("scrape_text", "teleport"), "bad action"),
        ] {
            let raw = parse_json(&mangle).unwrap();
            let err = decode_session(&raw).unwrap_err();
            assert!(err.contains(needle), "{mangle} → {err}");
        }
    }

    #[test]
    fn meta_records_round_trip() {
        let meta = ManagerMeta {
            next_id: 9,
            clock: 140,
            stats: StatsV2 {
                sessions: SessionCounters {
                    created: 8,
                    closed: 3,
                    live: 0,
                    evicted: 0,
                },
                events: EventCounters {
                    ok: 77,
                    rejected: 4,
                },
                residency: ResidencyCounters {
                    evictions: 12,
                    restores: 11,
                },
            },
        };
        let record = encode_meta(&meta);
        // The record layout is pinned: stores written by earlier builds
        // must keep reopening.
        assert_eq!(
            record.to_json(),
            r#"{"v":1,"kind":"meta","next_id":9,"clock":140,"sessions_created":8,"sessions_closed":3,"events_ok":77,"events_rejected":4,"evictions":12,"restores":11}"#
        );
        let reparsed = parse_json(&record.to_json()).unwrap();
        assert_eq!(decode_meta(&reparsed).unwrap(), meta);
        assert!(decode_meta(&parse_json("{\"v\":1,\"kind\":\"session\"}").unwrap()).is_err());
    }
}
