//! The versioned wire protocol (v1): string-in/string-out request and
//! response types over the paper's own JSON subset.
//!
//! Everything on the wire is expressible in `webrobot_data`'s data-source
//! grammar — objects, arrays, strings and integers; no booleans, floats or
//! `null` — so the protocol needs no serialization dependency beyond
//! [`webrobot_data::parse_json`] / [`Value::to_json`]. Status is the
//! string `"ok"` / `"error"`, optional fields are simply absent.
//!
//! The complete request/response shapes and error-code table are
//! documented in `PROTOCOL.md` at the repository root; the shapes are
//! exercised end-to-end by `examples/service_loop.rs` and
//! `tests/service.rs`.

use std::error::Error;
use std::fmt;

use webrobot_browser::Output;
use webrobot_data::{parse_json, PathSeg, Value, ValuePath};
use webrobot_interact::{Event, Mode, StepOutcome};
use webrobot_lang::Action;
use webrobot_metrics::{
    bucket_bound, HistogramSnapshot, MetricsSnapshot, RequestKind, ShardGaugesSnapshot,
};

use crate::stats::StatsV2;

/// The protocol version this build speaks. Requests must carry
/// `{"v": 1}`; anything else is rejected with `unsupported_version`.
pub const PROTOCOL_VERSION: i64 = 1;

/// A malformed or unsupported request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    code: &'static str,
    message: String,
}

impl ProtocolError {
    fn bad(message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code: "bad_request",
            message: message.into(),
        }
    }

    fn version(message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code: "unsupported_version",
            message: message.into(),
        }
    }

    /// Stable machine-readable error code (`bad_request` or
    /// `unsupported_version`).
    pub fn code(&self) -> &'static str {
        self.code
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl Error for ProtocolError {}

/// A decoded v1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a session on a registered site.
    Create {
        /// Name the site was registered under.
        site: String,
        /// Data source override (defaults to the site's registered input).
        input: Option<Value>,
        /// Per-session synthesis deadline override, in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Dispatch one session event.
    Event {
        /// The session id (`"s-<n>"`).
        session: String,
        /// The event to dispatch.
        event: Event,
    },
    /// Fetch everything a session has scraped so far.
    Outputs {
        /// The session id.
        session: String,
    },
    /// Fetch the full observability snapshot: versioned service counters
    /// plus latency histograms, per-kind request counters and per-shard
    /// gauges.
    Metrics,
    /// Finish and forget a session.
    Close {
        /// The session id.
        session: String,
    },
    /// Flush every session (and the manager metadata) to the attached
    /// snapshot store, bounding the data-loss window under a hard kill.
    Checkpoint,
    /// Adopt sessions from the attached snapshot store that this manager
    /// does not yet track (e.g. records written by another process).
    Recover,
}

impl Request {
    /// Decodes a v1 request from its JSON wire form.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] with code `bad_request` on malformed input,
    /// `unsupported_version` when `v` is not [`PROTOCOL_VERSION`].
    pub fn from_json(input: &str) -> Result<Request, ProtocolError> {
        let value =
            parse_json(input).map_err(|e| ProtocolError::bad(format!("invalid json: {e}")))?;
        let version = value
            .field("v")
            .and_then(Value::as_int)
            .ok_or_else(|| ProtocolError::version("missing integer field 'v'"))?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::version(format!(
                "protocol version {version} is not supported (this build speaks v{PROTOCOL_VERSION})"
            )));
        }
        let kind = require_str(&value, "kind")?;
        match kind {
            "create" => Ok(Request::Create {
                site: require_str(&value, "site")?.to_string(),
                input: value.field("input").cloned(),
                deadline_ms: match value.field("deadline_ms") {
                    None => None,
                    Some(v) => Some(v.as_int().and_then(|n| u64::try_from(n).ok()).ok_or_else(
                        || ProtocolError::bad("'deadline_ms' must be a non-negative integer"),
                    )?),
                },
            }),
            "event" => Ok(Request::Event {
                session: require_str(&value, "session")?.to_string(),
                event: event_from_value(
                    value
                        .field("event")
                        .ok_or_else(|| ProtocolError::bad("missing field 'event'"))?,
                )?,
            }),
            "outputs" => Ok(Request::Outputs {
                session: require_str(&value, "session")?.to_string(),
            }),
            "metrics" => Ok(Request::Metrics),
            "close" => Ok(Request::Close {
                session: require_str(&value, "session")?.to_string(),
            }),
            "checkpoint" => Ok(Request::Checkpoint),
            "recover" => Ok(Request::Recover),
            other => Err(ProtocolError::bad(format!(
                "unknown request kind '{other}'"
            ))),
        }
    }

    /// Encodes the request into its JSON wire form (what a front-end
    /// sends).
    pub fn to_json(&self) -> String {
        let mut fields = vec![("v".to_string(), Value::Int(PROTOCOL_VERSION))];
        match self {
            Request::Create {
                site,
                input,
                deadline_ms,
            } => {
                fields.push(("kind".to_string(), Value::str("create")));
                fields.push(("site".to_string(), Value::str(site.clone())));
                if let Some(input) = input {
                    fields.push(("input".to_string(), input.clone()));
                }
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), Value::Int(*ms as i64)));
                }
            }
            Request::Event { session, event } => {
                fields.push(("kind".to_string(), Value::str("event")));
                fields.push(("session".to_string(), Value::str(session.clone())));
                fields.push(("event".to_string(), event_to_value(event)));
            }
            Request::Outputs { session } => {
                fields.push(("kind".to_string(), Value::str("outputs")));
                fields.push(("session".to_string(), Value::str(session.clone())));
            }
            Request::Metrics => fields.push(("kind".to_string(), Value::str("metrics"))),
            Request::Close { session } => {
                fields.push(("kind".to_string(), Value::str("close")));
                fields.push(("session".to_string(), Value::str(session.clone())));
            }
            Request::Checkpoint => fields.push(("kind".to_string(), Value::str("checkpoint"))),
            Request::Recover => fields.push(("kind".to_string(), Value::str("recover"))),
        }
        Value::Object(fields).to_json()
    }
}

/// A v1 response, produced by
/// [`SessionManager::handle`](crate::SessionManager::handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A session was created.
    Created {
        /// The new session's id.
        session: String,
        /// Its initial mode (always `demonstrate`).
        mode: Mode,
    },
    /// An event was dispatched.
    Event {
        /// The session id.
        session: String,
        /// What the step did.
        outcome: StepOutcome,
        /// The session's mode after the event.
        mode: Mode,
        /// Current predictions, best first.
        predictions: Vec<Action>,
        /// How many outputs the session has scraped so far.
        outputs: usize,
    },
    /// The session's scraped outputs.
    Outputs {
        /// The session id.
        session: String,
        /// Everything scraped so far, in order.
        outputs: Vec<Output>,
    },
    /// The full observability snapshot: versioned grouped counters plus
    /// latency histograms, per-kind request counters and per-shard gauges.
    Metrics {
        /// Versioned service counters (the v2 stats shape).
        stats: StatsV2,
        /// Histograms, request counters, scheduler counters and gauges.
        /// Boxed: the snapshot dwarfs every other variant, and boxing it
        /// keeps `Response` small for the common replies.
        metrics: Box<MetricsSnapshot>,
    },
    /// A session was finished and forgotten.
    Closed {
        /// The closed session's id.
        session: String,
    },
    /// The manager was flushed to its snapshot store.
    Checkpointed {
        /// How many session records the store now holds for this manager.
        sessions: usize,
    },
    /// Sessions were adopted from the snapshot store.
    Recovered {
        /// How many previously untracked sessions were adopted.
        sessions: usize,
    },
    /// The request failed.
    Error {
        /// Stable machine-readable code (see `PROTOCOL.md`).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the response into its JSON wire form.
    pub fn to_json(&self) -> String {
        let mut fields = vec![("v".to_string(), Value::Int(PROTOCOL_VERSION))];
        let ok = |fields: &mut Vec<(String, Value)>, kind: &str| {
            fields.push(("status".to_string(), Value::str("ok")));
            fields.push(("kind".to_string(), Value::str(kind)));
        };
        match self {
            Response::Created { session, mode } => {
                ok(&mut fields, "created");
                fields.push(("session".to_string(), Value::str(session.clone())));
                fields.push(("mode".to_string(), Value::str(mode.as_str())));
            }
            Response::Event {
                session,
                outcome,
                mode,
                predictions,
                outputs,
            } => {
                ok(&mut fields, "event");
                fields.push(("session".to_string(), Value::str(session.clone())));
                fields.push(("outcome".to_string(), Value::str(outcome.as_str())));
                if let StepOutcome::Automated(action) = outcome {
                    fields.push(("action".to_string(), action_to_value(action)));
                }
                fields.push(("mode".to_string(), Value::str(mode.as_str())));
                fields.push((
                    "predictions".to_string(),
                    Value::Array(predictions.iter().map(action_to_value).collect()),
                ));
                fields.push(("outputs".to_string(), Value::Int(*outputs as i64)));
            }
            Response::Outputs { session, outputs } => {
                ok(&mut fields, "outputs");
                fields.push(("session".to_string(), Value::str(session.clone())));
                fields.push((
                    "outputs".to_string(),
                    Value::Array(outputs.iter().map(output_to_value).collect()),
                ));
            }
            Response::Metrics { stats, metrics } => {
                ok(&mut fields, "metrics");
                fields.push(("stats".to_string(), stats_v2_to_value(stats)));
                fields.push(("metrics".to_string(), metrics_to_value(metrics)));
            }
            Response::Closed { session } => {
                ok(&mut fields, "closed");
                fields.push(("session".to_string(), Value::str(session.clone())));
            }
            Response::Checkpointed { sessions } => {
                ok(&mut fields, "checkpointed");
                fields.push(("sessions".to_string(), Value::Int(*sessions as i64)));
            }
            Response::Recovered { sessions } => {
                ok(&mut fields, "recovered");
                fields.push(("sessions".to_string(), Value::Int(*sessions as i64)));
            }
            Response::Error { code, message } => {
                fields.push(("status".to_string(), Value::str("error")));
                fields.push((
                    "error".to_string(),
                    Value::object([
                        ("code".to_string(), Value::str(code.clone())),
                        ("message".to_string(), Value::str(message.clone())),
                    ]),
                ));
            }
        }
        Value::Object(fields).to_json()
    }
}

impl From<ProtocolError> for Response {
    fn from(e: ProtocolError) -> Response {
        Response::Error {
            code: e.code().to_string(),
            message: e.to_string(),
        }
    }
}

// ───────────────────── field helpers ─────────────────────

fn require_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, ProtocolError> {
    value
        .field(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ProtocolError::bad(format!("missing string field '{key}'")))
}

// ───────────────────── event codec ─────────────────────

/// Encodes an [`Event`] into its wire object (`{"type": ..., ...}`).
pub fn event_to_value(event: &Event) -> Value {
    let mut fields = vec![("type".to_string(), Value::str(event.name()))];
    match event {
        Event::Demonstrate(action) => {
            fields.push(("action".to_string(), action_to_value(action)));
        }
        Event::Accept { index } => {
            fields.push(("index".to_string(), Value::Int(*index as i64)));
        }
        Event::RejectAll | Event::AutomateStep | Event::Interrupt | Event::Finish => {}
    }
    Value::Object(fields)
}

/// Decodes an [`Event`] from its wire object.
///
/// # Errors
///
/// [`ProtocolError`] (`bad_request`) on missing/ill-typed fields or an
/// unknown event type.
pub fn event_from_value(value: &Value) -> Result<Event, ProtocolError> {
    match require_str(value, "type")? {
        "demonstrate" => Ok(Event::Demonstrate(action_from_value(
            value
                .field("action")
                .ok_or_else(|| ProtocolError::bad("missing field 'action'"))?,
        )?)),
        "accept" => Ok(Event::Accept {
            index: value
                .field("index")
                .and_then(Value::as_int)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| ProtocolError::bad("'index' must be a non-negative integer"))?,
        }),
        "reject_all" => Ok(Event::RejectAll),
        "automate_step" => Ok(Event::AutomateStep),
        "interrupt" => Ok(Event::Interrupt),
        "finish" => Ok(Event::Finish),
        other => Err(ProtocolError::bad(format!("unknown event type '{other}'"))),
    }
}

// ───────────────────── action codec ─────────────────────

/// Encodes an [`Action`] into its wire object (`{"op": ..., ...}`).
pub fn action_to_value(action: &Action) -> Value {
    let mut fields = Vec::new();
    let op = |name: &str| ("op".to_string(), Value::str(name));
    match action {
        Action::Click(p) => {
            fields.push(op("click"));
            fields.push(("selector".to_string(), Value::str(p.to_string())));
        }
        Action::ScrapeText(p) => {
            fields.push(op("scrape_text"));
            fields.push(("selector".to_string(), Value::str(p.to_string())));
        }
        Action::ScrapeLink(p) => {
            fields.push(op("scrape_link"));
            fields.push(("selector".to_string(), Value::str(p.to_string())));
        }
        Action::Download(p) => {
            fields.push(op("download"));
            fields.push(("selector".to_string(), Value::str(p.to_string())));
        }
        Action::GoBack => fields.push(op("go_back")),
        Action::ExtractUrl => fields.push(op("extract_url")),
        Action::SendKeys(p, text) => {
            fields.push(op("send_keys"));
            fields.push(("selector".to_string(), Value::str(p.to_string())));
            fields.push(("text".to_string(), Value::str(text.clone())));
        }
        Action::EnterData(p, vpath) => {
            fields.push(op("enter_data"));
            fields.push(("selector".to_string(), Value::str(p.to_string())));
            fields.push((
                "value_path".to_string(),
                Value::Array(
                    vpath
                        .segs()
                        .iter()
                        .map(|seg| match seg {
                            PathSeg::Key(k) => Value::str(k.clone()),
                            PathSeg::Index(i) => Value::Int(*i as i64),
                        })
                        .collect(),
                ),
            ));
        }
    }
    Value::Object(fields)
}

/// Decodes an [`Action`] from its wire object. Selectors use the XPath
/// subset of `webrobot_dom`; value paths are arrays whose string elements
/// are object keys and integer elements are 1-based array indices.
///
/// # Errors
///
/// [`ProtocolError`] (`bad_request`) on missing/ill-typed fields, an
/// unknown op, or an unparsable selector.
pub fn action_from_value(value: &Value) -> Result<Action, ProtocolError> {
    let selector = |value: &Value| -> Result<webrobot_dom::Path, ProtocolError> {
        let raw = require_str(value, "selector")?;
        raw.parse()
            .map_err(|e| ProtocolError::bad(format!("invalid selector '{raw}': {e}")))
    };
    match require_str(value, "op")? {
        "click" => Ok(Action::Click(selector(value)?)),
        "scrape_text" => Ok(Action::ScrapeText(selector(value)?)),
        "scrape_link" => Ok(Action::ScrapeLink(selector(value)?)),
        "download" => Ok(Action::Download(selector(value)?)),
        "go_back" => Ok(Action::GoBack),
        "extract_url" => Ok(Action::ExtractUrl),
        "send_keys" => Ok(Action::SendKeys(
            selector(value)?,
            require_str(value, "text")?.to_string(),
        )),
        "enter_data" => {
            let segs = value
                .field("value_path")
                .and_then(Value::as_array)
                .ok_or_else(|| ProtocolError::bad("missing array field 'value_path'"))?
                .iter()
                .map(|seg| match seg {
                    Value::Str(k) => Ok(PathSeg::Key(k.clone())),
                    Value::Int(i) => usize::try_from(*i)
                        .map(PathSeg::Index)
                        .map_err(|_| ProtocolError::bad("value_path indices must be non-negative")),
                    other => Err(ProtocolError::bad(format!(
                        "value_path segments must be strings or integers, got {other}"
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Action::EnterData(selector(value)?, ValuePath::new(segs)))
        }
        other => Err(ProtocolError::bad(format!("unknown action op '{other}'"))),
    }
}

fn output_to_value(output: &Output) -> Value {
    let kind = match output {
        Output::Text(_) => "text",
        Output::Link(_) => "link",
        Output::Url(_) => "url",
        Output::Download(_) => "download",
    };
    Value::object([
        ("kind".to_string(), Value::str(kind)),
        ("payload".to_string(), Value::str(output.payload())),
    ])
}

fn stats_v2_to_value(stats: &StatsV2) -> Value {
    Value::object([
        ("v".to_string(), Value::Int(2)),
        (
            "sessions".to_string(),
            Value::object([
                (
                    "created".to_string(),
                    Value::Int(stats.sessions.created as i64),
                ),
                (
                    "closed".to_string(),
                    Value::Int(stats.sessions.closed as i64),
                ),
                ("live".to_string(), Value::Int(stats.sessions.live as i64)),
                (
                    "evicted".to_string(),
                    Value::Int(stats.sessions.evicted as i64),
                ),
            ]),
        ),
        (
            "events".to_string(),
            Value::object([
                ("ok".to_string(), Value::Int(stats.events.ok as i64)),
                (
                    "rejected".to_string(),
                    Value::Int(stats.events.rejected as i64),
                ),
            ]),
        ),
        (
            "residency".to_string(),
            Value::object([
                (
                    "evictions".to_string(),
                    Value::Int(stats.residency.evictions as i64),
                ),
                (
                    "restores".to_string(),
                    Value::Int(stats.residency.restores as i64),
                ),
            ]),
        ),
    ])
}

fn histogram_to_value(hist: &HistogramSnapshot) -> Value {
    let buckets = hist
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, count)| **count > 0)
        .map(|(idx, count)| {
            Value::object([
                ("le_ns".to_string(), Value::Int(bucket_bound(idx) as i64)),
                ("count".to_string(), Value::Int(*count as i64)),
            ])
        })
        .collect();
    Value::object([
        ("count".to_string(), Value::Int(hist.count as i64)),
        ("mean_ns".to_string(), Value::Int(hist.mean_ns() as i64)),
        ("max_ns".to_string(), Value::Int(hist.max_ns as i64)),
        ("p50_ns".to_string(), Value::Int(hist.percentile(50) as i64)),
        ("p95_ns".to_string(), Value::Int(hist.percentile(95) as i64)),
        ("p99_ns".to_string(), Value::Int(hist.percentile(99) as i64)),
        ("buckets".to_string(), Value::Array(buckets)),
    ])
}

fn shard_gauges_to_value(shard: usize, gauges: &ShardGaugesSnapshot) -> Value {
    Value::object([
        ("shard".to_string(), Value::Int(shard as i64)),
        (
            "queue_depth".to_string(),
            Value::Int(gauges.queue_depth as i64),
        ),
        (
            "parked_sessions".to_string(),
            Value::Int(gauges.parked_sessions as i64),
        ),
        (
            "live_sessions".to_string(),
            Value::Int(gauges.live_sessions as i64),
        ),
        (
            "evicted_sessions".to_string(),
            Value::Int(gauges.evicted_sessions as i64),
        ),
        (
            "dirty_sessions".to_string(),
            Value::Int(gauges.dirty_sessions as i64),
        ),
        (
            "store_puts".to_string(),
            Value::Int(gauges.store_puts as i64),
        ),
        (
            "store_removes".to_string(),
            Value::Int(gauges.store_removes as i64),
        ),
        (
            "store_bytes".to_string(),
            Value::Int(gauges.store_bytes as i64),
        ),
        (
            "store_fsyncs".to_string(),
            Value::Int(gauges.store_fsyncs as i64),
        ),
        (
            "store_compactions".to_string(),
            Value::Int(gauges.store_compactions as i64),
        ),
    ])
}

fn metrics_to_value(metrics: &MetricsSnapshot) -> Value {
    let requests = metrics
        .requests
        .iter()
        .map(|req| {
            let errors = req
                .errors
                .iter()
                .map(|(code, count)| {
                    Value::object([
                        ("code".to_string(), Value::str(*code)),
                        ("count".to_string(), Value::Int(*count as i64)),
                    ])
                })
                .collect();
            Value::object([
                ("kind".to_string(), Value::str(req.kind)),
                ("ok".to_string(), Value::Int(req.ok as i64)),
                ("errors".to_string(), Value::Array(errors)),
                ("latency".to_string(), histogram_to_value(&req.latency)),
            ])
        })
        .collect();
    let shards = metrics
        .shards
        .iter()
        .enumerate()
        .map(|(shard, gauges)| shard_gauges_to_value(shard, gauges))
        .collect();
    Value::object([
        ("version".to_string(), Value::Int(metrics.version as i64)),
        ("requests".to_string(), Value::Array(requests)),
        (
            "lifecycle".to_string(),
            Value::object([
                ("evict".to_string(), histogram_to_value(&metrics.evict)),
                ("restore".to_string(), histogram_to_value(&metrics.restore)),
                (
                    "checkpoint".to_string(),
                    histogram_to_value(&metrics.checkpoint),
                ),
            ]),
        ),
        (
            "transport".to_string(),
            histogram_to_value(&metrics.transport),
        ),
        (
            "scheduler".to_string(),
            Value::object([
                ("quanta".to_string(), Value::Int(metrics.quanta as i64)),
                ("parks".to_string(), Value::Int(metrics.parks as i64)),
            ]),
        ),
        ("shards".to_string(), Value::Array(shards)),
    ])
}

/// Classifies a decoded request for per-kind metrics accounting.
pub(crate) fn request_kind(request: &Request) -> RequestKind {
    match request {
        Request::Create { .. } => RequestKind::Create,
        Request::Event { .. } => RequestKind::Event,
        Request::Outputs { .. } => RequestKind::Outputs,
        Request::Metrics => RequestKind::Metrics,
        Request::Close { .. } => RequestKind::Close,
        Request::Checkpoint => RequestKind::Checkpoint,
        Request::Recover => RequestKind::Recover,
    }
}

/// The stable error code carried by an error response, if any.
pub(crate) fn response_error_code(response: &Response) -> Option<&str> {
    match response {
        Response::Error { code, .. } => Some(code.as_str()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> webrobot_dom::Path {
        s.parse().unwrap()
    }

    #[test]
    fn every_action_round_trips() {
        let actions = [
            Action::Click(p("/a[1]")),
            Action::ScrapeText(p("//h3[2]")),
            Action::ScrapeLink(p("/div[1]/a[3]")),
            Action::Download(p("//a[1]")),
            Action::GoBack,
            Action::ExtractUrl,
            Action::SendKeys(p("//input[1]"), "48105".to_string()),
            Action::EnterData(
                p("//input[1]"),
                ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(2)]),
            ),
        ];
        for action in actions {
            let wire = action_to_value(&action);
            // The wire form survives a JSON print/parse cycle too.
            let reparsed = parse_json(&wire.to_json()).unwrap();
            assert_eq!(action_from_value(&reparsed).unwrap(), action, "{wire}");
        }
    }

    #[test]
    fn every_event_round_trips() {
        let events = [
            Event::Demonstrate(Action::ScrapeText(p("/a[1]"))),
            Event::Accept { index: 3 },
            Event::RejectAll,
            Event::AutomateStep,
            Event::Interrupt,
            Event::Finish,
        ];
        for event in events {
            let wire = event_to_value(&event);
            let reparsed = parse_json(&wire.to_json()).unwrap();
            assert_eq!(event_from_value(&reparsed).unwrap(), event);
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Create {
                site: "news".to_string(),
                input: Some(Value::object([(
                    "zips".to_string(),
                    Value::str_array(["48105"]),
                )])),
                deadline_ms: Some(250),
            },
            Request::Create {
                site: "news".to_string(),
                input: None,
                deadline_ms: None,
            },
            Request::Event {
                session: "s-1".to_string(),
                event: Event::Accept { index: 0 },
            },
            Request::Outputs {
                session: "s-2".to_string(),
            },
            Request::Metrics,
            Request::Close {
                session: "s-1".to_string(),
            },
            Request::Checkpoint,
            Request::Recover,
        ];
        for request in requests {
            assert_eq!(Request::from_json(&request.to_json()).unwrap(), request);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let err = Request::from_json(r#"{"v": 2, "kind": "metrics"}"#).unwrap_err();
        assert_eq!(err.code(), "unsupported_version");
        let err = Request::from_json(r#"{"kind": "metrics"}"#).unwrap_err();
        assert_eq!(err.code(), "unsupported_version");
    }

    #[test]
    fn malformed_requests_are_bad_request() {
        for raw in [
            "not json",
            r#"{"v": 1}"#,
            r#"{"v": 1, "kind": "teleport"}"#,
            // The retired flat-stats request is an unknown kind.
            r#"{"v": 1, "kind": "stats"}"#,
            r#"{"v": 1, "kind": "event", "session": "s-1"}"#,
            r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "warp"}}"#,
            r#"{"v": 1, "kind": "create"}"#,
            r#"{"v": 1, "kind": "create", "site": "x", "deadline_ms": -4}"#,
            r#"{"v": 1, "kind": "event", "session": "s-1", "event": {"type": "accept", "index": -1}}"#,
        ] {
            let err = Request::from_json(raw).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{raw}");
        }
    }

    #[test]
    fn error_responses_render_code_and_message() {
        let json = Response::Error {
            code: "wrong_mode".to_string(),
            message: "event 'accept' is not valid in mode Demonstrate".to_string(),
        }
        .to_json();
        let v = parse_json(&json).unwrap();
        assert_eq!(v.field("status").unwrap().as_str(), Some("error"));
        let error = v.field("error").unwrap();
        assert_eq!(error.field("code").unwrap().as_str(), Some("wrong_mode"));
        assert!(error
            .field("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("accept"));
    }
}
